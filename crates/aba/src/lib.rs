//! Asynchronous binary Byzantine agreement (ABA) driven by a pluggable
//! common coin — §6.2 of the paper.
//!
//! The protocol is the signature-free binary agreement of Mostéfaoui, Moumen
//! and Raynal (JACM '15) as referenced by the paper (\[55\]), augmented with a
//! standard termination gadget (`Finish` amplification) so parties can halt.
//! Each round consists of:
//!
//! 1. **Binary-value broadcast** (`BVal`): a value enters `bin_values` after
//!    `2f + 1` supporting broadcasts; values supported by `f + 1` parties are
//!    relayed.
//! 2. **Auxiliary exchange** (`Aux`): parties report one value from
//!    `bin_values`; once `n − f` reports carrying bin-valued entries are
//!    collected, the common coin for that round is invoked.
//! 3. **Coin and decision**: with a single candidate value `b` matching the
//!    coin, decide `b`; otherwise adopt the candidate (or the coin when both
//!    values survived) as the next round's estimate.
//!
//! The per-round coins are mounted in a session [`Router`] at path kind
//! [`K_COIN`], keyed by round number — the router's bounded pre-activation
//! buffer holds coin traffic for rounds whose Aux quorum has not completed
//! locally (replacing the former hand-rolled per-round `coin_buffer`).  The
//! ABA's own `BVal`/`Aux`/`Finish` messages travel at the root path.
//!
//! With the paper's `(n, f, 2f+1, 1/3)`-coin plugged in, the protocol
//! terminates in expected `O(1)` rounds and expected `O(λn³)` bits — the
//! coin's cost dominates (Theorem 4).  With the idealised
//! [`TrustedCoin`](setupfree_core::TrustedCoin) (private setup) it costs
//! `O(n²)` messages per round, which is exactly the comparison the Table 1
//! harness reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use setupfree_core::traits::{AbaFactory, CoinFactory};
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{composite_cap, Envelope, InstancePath};
use setupfree_net::{PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_wire::codec;

/// Path kind of the per-round coin instances (keyed by round number).
pub const K_COIN: u8 = 0;

/// The ABA's *local* messages (root instance path); per-round coin traffic
/// travels under [`K_COIN`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbaMessage {
    /// Binary-value broadcast for `(round, value)`.
    BVal {
        /// Round number.
        round: u32,
        /// The supported value.
        value: bool,
    },
    /// Auxiliary announcement of a bin value for `round`.
    Aux {
        /// Round number.
        round: u32,
        /// The announced value.
        value: bool,
    },
    /// Termination gadget: the sender has decided `value`.
    Finish {
        /// The decided value.
        value: bool,
    },
}

codec!(enum AbaMessage {
    0 => BVal { round, value },
    1 => Aux { round, value },
    2 => Finish { value },
});

/// Per-round protocol state (the round's coin lives in the coin router).
#[derive(Debug, Default)]
struct RoundState {
    bval_sent: [bool; 2],
    bval_from: [BTreeSet<usize>; 2],
    bin_values: [bool; 2],
    aux_sent: bool,
    /// Aux sender → value.
    aux_from: BTreeMap<usize, bool>,
    coin_value: Option<bool>,
    advanced: bool,
}

/// One party's state machine for a single ABA instance, generic over the
/// common-coin factory.
///
/// # Committee mode
///
/// The instance is parameterised by a [`Committee`].  Under
/// [`Committee::full`] (the default of [`MmrAba::new`]) the protocol is the
/// classic all-to-all MMR — bit-identical messages, destinations and
/// thresholds.  Under a *proper* committee
/// ([`MmrAba::with_committee`] / [`MmrAbaFactory::with_committee`]):
///
/// * **members** run the full protocol among themselves: `BVal`/`Aux` fan
///   out point-to-point to the `m` members only, thresholds are
///   committee-relative (`f_c = ⌊(m−1)/3⌋`, quorum `m − f_c`), and
///   `BVal`/`Aux`/coin traffic from non-members is dropped outright;
/// * **`Finish` is still multicast to all `n` parties** — it is the bridge
///   to the listeners;
/// * **non-members** send nothing.  They adopt the committee's decision
///   once `f_c + 1` distinct members sent `Finish` for the same value (at
///   least one of them is honest, and the first honest `Finish` for a value
///   only follows a decision), and they drop coin-path traffic instead of
///   buffering it — they will never mount round coins, so buffering would
///   be a memory hole, not a service.
pub struct MmrAba<F: CoinFactory> {
    sid: Sid,
    me: PartyId,
    n: usize,
    f: usize,
    committee: Committee,
    coin_factory: F,
    est: bool,
    round: u32,
    rounds: BTreeMap<u32, RoundState>,
    coins: Router<F::Instance>,
    finish_sent: bool,
    finish_from: [BTreeSet<usize>; 2],
    output: Option<bool>,
    /// Maximum rounds before giving up (protects simulations against
    /// pathological schedules; far above the expected constant).
    max_rounds: u32,
}

impl<F: CoinFactory> std::fmt::Debug for MmrAba<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmrAba")
            .field("sid", &self.sid)
            .field("me", &self.me)
            .field("round", &self.round)
            .field("est", &self.est)
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

impl<F: CoinFactory> MmrAba<F> {
    /// Creates the all-to-all ABA state machine for party `me` with input
    /// bit `input` (a [`Committee::full`] committee).
    pub fn new(sid: Sid, me: PartyId, n: usize, f: usize, input: bool, coin_factory: F) -> Self {
        Self::with_committee(sid, me, n, f, input, coin_factory, Committee::full(n))
    }

    /// Creates the ABA state machine running inside `committee` (see the
    /// type-level docs for member / listener roles).  The coin router's
    /// pre-activation cap is sized to the committee, not to `n`: only
    /// members legitimately send coin traffic.
    pub fn with_committee(
        sid: Sid,
        me: PartyId,
        n: usize,
        f: usize,
        input: bool,
        coin_factory: F,
        committee: Committee,
    ) -> Self {
        assert_eq!(committee.n(), n, "committee sampled over a different party set");
        let cap = composite_cap(committee.size());
        MmrAba {
            sid,
            me,
            n,
            f,
            committee,
            coin_factory,
            est: input,
            round: 0,
            rounds: BTreeMap::new(),
            coins: Router::with_cap(K_COIN, cap),
            finish_sent: false,
            finish_from: [BTreeSet::new(), BTreeSet::new()],
            output: None,
            max_rounds: 64,
        }
    }

    /// The committee this instance runs in.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    /// Whether this party actively runs the protocol (always true in
    /// all-to-all mode; committee members only otherwise).
    pub fn is_member(&self) -> bool {
        self.committee.is_member(self.me)
    }

    /// Number of envelopes currently held in the per-round coin router's
    /// pre-activation buffer (diagnostics / the flooding regression test).
    pub fn buffered_coin_messages(&self) -> usize {
        self.coins.buffered()
    }

    /// The Byzantine tolerance of the active participant set: `f` in
    /// all-to-all mode, `f_c = ⌊(m−1)/3⌋` inside a proper committee.
    fn fault_bound(&self) -> usize {
        if self.committee.is_proper() {
            self.committee.f()
        } else {
            self.f
        }
    }

    fn quorum(&self) -> usize {
        if self.committee.is_proper() {
            self.committee.quorum()
        } else {
            self.n - self.f
        }
    }

    /// Fans a protocol message out to the active participants: a true
    /// multicast in all-to-all mode, per-member sends otherwise.
    fn fan(&self, step: &mut Step<Envelope>, env: Envelope) {
        self.committee.fan_out(step, env);
    }

    fn local(msg: &AbaMessage) -> Envelope {
        Envelope::seal(InstancePath::root(), msg)
    }

    fn round_state(&mut self, round: u32) -> &mut RoundState {
        self.rounds.entry(round).or_default()
    }

    fn start_round(&mut self, round: u32) -> Step<Envelope> {
        if !self.is_member() {
            return Step::none();
        }
        let est = self.est;
        let fresh = {
            let state = self.round_state(round);
            !state.bval_sent[est as usize] && {
                state.bval_sent[est as usize] = true;
                true
            }
        };
        let mut step = Step::none();
        if fresh {
            setupfree_obs::phase(setupfree_obs::Phase::AbaRound, round);
            setupfree_obs::phase(setupfree_obs::Phase::AbaEst, est as u32);
            self.fan(&mut step, Self::local(&AbaMessage::BVal { round, value: est }));
        }
        step
    }

    fn on_bval(&mut self, round: u32, from: PartyId, value: bool) -> Step<Envelope> {
        let f = self.fault_bound();
        let (relay, aux) = {
            let state = self.round_state(round);
            state.bval_from[value as usize].insert(from.index());
            let count = state.bval_from[value as usize].len();
            let relay = count > f && !state.bval_sent[value as usize] && {
                state.bval_sent[value as usize] = true;
                true
            };
            let mut aux = false;
            if count > 2 * f && !state.bin_values[value as usize] {
                state.bin_values[value as usize] = true;
                if !state.aux_sent {
                    state.aux_sent = true;
                    aux = true;
                }
            }
            (relay, aux)
        };
        let mut step = Step::none();
        if relay {
            self.fan(&mut step, Self::local(&AbaMessage::BVal { round, value }));
        }
        if aux {
            setupfree_obs::phase(setupfree_obs::Phase::AbaAux, value as u32);
            self.fan(&mut step, Self::local(&AbaMessage::Aux { round, value }));
        }
        step.extend(self.try_invoke_coin(round));
        step
    }

    fn on_aux(&mut self, round: u32, from: PartyId, value: bool) -> Step<Envelope> {
        let state = self.round_state(round);
        state.aux_from.entry(from.index()).or_insert(value);
        self.try_invoke_coin(round)
    }

    /// Invokes the round's coin once `n − f` Aux messages carrying bin values
    /// have been collected.
    fn try_invoke_coin(&mut self, round: u32) -> Step<Envelope> {
        let quorum = self.quorum();
        if self.coins.contains(round as usize) {
            return Step::none();
        }
        let state = self.round_state(round);
        if !state.aux_sent {
            return Step::none();
        }
        let supported = state
            .aux_from
            .values()
            .filter(|v| state.bin_values[**v as usize])
            .count();
        if supported < quorum {
            return Step::none();
        }
        let sid = self.sid.derive("coin", round as usize);
        // Round 0's coin is always created first (round r's invocation
        // requires round r−1's coin output); later rounds are siblings that
        // can share its reusable setup (the seeding, §6.1) instead of
        // re-running it.
        let coin = match self.coins.get(0) {
            Some(first) if round > 0 => self.coin_factory.create_sibling(sid, first),
            _ => self.coin_factory.create(sid),
        };
        // Mounting the round's coin replays buffered coin traffic for it.
        let mut step = self.coins.insert(round as usize, coin);
        step.extend(self.after_coin(round));
        step
    }

    /// Pokes every live coin other than `round` through the factory:
    /// later rounds read the seed pool the first round's coin hosts, so
    /// traffic processed by that coin can publish seeds that unblock
    /// siblings whose own traffic never arrives.
    fn poke_sibling_coins(&mut self, round: u32) -> Step<Envelope> {
        let live: Vec<usize> =
            self.coins.iter().map(|(i, _)| i).filter(|&i| i != round as usize).collect();
        let mut step = Step::none();
        for i in live {
            let seg = self.coins.seg(i);
            if let Some(coin) = self.coins.get_mut(i) {
                step.extend(self.coin_factory.poke(coin).prefix(seg));
            }
            step.extend(self.after_coin(i as u32));
        }
        step
    }

    /// Processes the coin result and moves to the next round (MMR decision
    /// rule).
    fn after_coin(&mut self, round: u32) -> Step<Envelope> {
        let quorum = self.quorum();
        let coin_output = self.coins.get(round as usize).and_then(|c| c.output());
        let state = self.round_state(round);
        if state.advanced {
            return Step::none();
        }
        if state.coin_value.is_none() {
            if let Some(out) = coin_output {
                state.coin_value = Some(out.bit);
            }
        }
        let Some(coin) = state.coin_value else { return Step::none() };
        // Re-evaluate the Aux condition at decision time.
        let vals: Vec<bool> = state
            .aux_from
            .values()
            .filter(|v| state.bin_values[**v as usize])
            .copied()
            .collect();
        if vals.len() < quorum {
            return Step::none();
        }
        let has_false = vals.iter().any(|v| !*v);
        let has_true = vals.iter().any(|v| *v);
        state.advanced = true;
        let mut step = Step::none();
        match (has_false, has_true) {
            (true, true) => {
                self.est = coin;
                setupfree_obs::phase(setupfree_obs::Phase::AbaEst, coin as u32);
            }
            (single_false, _) => {
                let b = !single_false;
                self.est = b;
                setupfree_obs::phase(setupfree_obs::Phase::AbaEst, b as u32);
                if b == coin && self.output.is_none() {
                    self.output = Some(b);
                    setupfree_obs::phase(setupfree_obs::Phase::AbaDecide, b as u32);
                    if !self.finish_sent {
                        self.finish_sent = true;
                        step.push_multicast(Self::local(&AbaMessage::Finish { value: b }));
                    }
                }
            }
        }
        // Advance to the next round if we haven't terminated.
        if round + 1 < self.max_rounds {
            self.round = self.round.max(round + 1);
            step.extend(self.start_round(round + 1));
        }
        step
    }

    fn on_finish(&mut self, from: PartyId, value: bool) -> Step<Envelope> {
        // Only the active participants' Finishes count — in all-to-all mode
        // that is everyone, in committee mode a non-member's Finish is
        // noise (honest non-members never send one).
        if !self.committee.is_member(from) {
            return Step::none();
        }
        self.finish_from[value as usize].insert(from.index());
        let count = self.finish_from[value as usize].len();
        let f = self.fault_bound();
        let mut step = Step::none();
        if self.is_member() {
            if count > f && !self.finish_sent {
                self.finish_sent = true;
                step.push_multicast(Self::local(&AbaMessage::Finish { value }));
            }
            if count > 2 * f && self.output.is_none() {
                self.output = Some(value);
                setupfree_obs::phase(setupfree_obs::Phase::AbaDecide, value as u32);
            }
        } else if count > f && self.output.is_none() {
            // Listen/adopt: `f_c + 1` distinct members finished with this
            // value, so at least one honest member did — and the first
            // honest `Finish` for a value only ever follows a decision, so
            // this is the committee's decided value.
            self.output = Some(value);
            setupfree_obs::phase(setupfree_obs::Phase::AbaDecide, value as u32);
        }
        step
    }

    fn on_local(&mut self, from: PartyId, msg: AbaMessage) -> Step<Envelope> {
        match msg {
            AbaMessage::BVal { round, value } => {
                if round >= self.max_rounds || !self.active_exchange(from) {
                    return Step::none();
                }
                self.on_bval(round, from, value)
            }
            AbaMessage::Aux { round, value } => {
                if round >= self.max_rounds || !self.active_exchange(from) {
                    return Step::none();
                }
                self.on_aux(round, from, value)
            }
            AbaMessage::Finish { value } => self.on_finish(from, value),
        }
    }

    /// Whether a `BVal`/`Aux`/coin exchange between this party and `from`
    /// is part of the protocol: both ends must be active participants.
    /// Always true in all-to-all mode.
    fn active_exchange(&self, from: PartyId) -> bool {
        self.is_member() && self.committee.is_member(from)
    }
}

impl<F: CoinFactory> ProtocolInstance for MmrAba<F> {
    type Message = Envelope;
    type Output = bool;

    fn on_activation(&mut self) -> Step<Envelope> {
        self.start_round(0)
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        if from.index() >= self.n {
            return Step::none();
        }
        match msg.path.split_first() {
            None => match msg.open::<AbaMessage>() {
                Some(local) => self.on_local(from, local),
                None => Step::none(),
            },
            Some((seg, path)) => {
                let round = seg.index as u32;
                if seg.kind != K_COIN || round >= self.max_rounds {
                    return Step::none();
                }
                // Committee mode: coin traffic is members-only in both
                // directions.  Dropping it *here* — instead of letting it
                // reach the router — is what keeps non-member filtering
                // from tripping (or consuming) the pre-activation cap: a
                // listener never mounts round coins, and a member never
                // buffers a non-member's coin spray.
                if !self.active_exchange(from) {
                    return Step::none();
                }
                let child = Envelope { path, payload: msg.payload };
                let mut step = self.coins.route(from, seg.index, child);
                step.extend(self.after_coin(round));
                step.extend(self.poke_sibling_coins(round));
                step
            }
        }
    }

    fn output(&self) -> Option<bool> {
        self.output
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.coins.stats()
    }
}

/// Factory producing [`MmrAba`] instances for a fixed party, pluggable into
/// the Election protocol via [`AbaFactory`].
#[derive(Debug, Clone)]
pub struct MmrAbaFactory<F: CoinFactory + Clone> {
    me: PartyId,
    n: usize,
    f: usize,
    committee: Committee,
    coin_factory: F,
}

impl<F: CoinFactory + Clone> MmrAbaFactory<F> {
    /// Creates a factory for party `me` over an `(n, f)` system
    /// (all-to-all).
    pub fn new(me: PartyId, n: usize, f: usize, coin_factory: F) -> Self {
        Self::with_committee(me, n, f, coin_factory, Committee::full(n))
    }

    /// Creates a factory whose instances run inside `committee` — the
    /// committee-sampled VBA plugs this in so its per-round vote-ABAs stay
    /// member-only.
    pub fn with_committee(
        me: PartyId,
        n: usize,
        f: usize,
        coin_factory: F,
        committee: Committee,
    ) -> Self {
        assert_eq!(committee.n(), n, "committee sampled over a different party set");
        MmrAbaFactory { me, n, f, committee, coin_factory }
    }
}

impl<F: CoinFactory + Clone> AbaFactory for MmrAbaFactory<F> {
    type Instance = MmrAba<F>;

    fn create(&self, sid: Sid, input: bool) -> MmrAba<F> {
        MmrAba::with_committee(
            sid,
            self.me,
            self.n,
            self.f,
            input,
            self.coin_factory.clone(),
            self.committee.clone(),
        )
    }
}

/// Convenience constructor for the paper's full stack: an ABA factory whose
/// rounds flip the private-setup-free Coin of Algorithm 4.
pub fn setup_free_aba_factory(
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
) -> MmrAbaFactory<setupfree_core::coin::CoinProtocolFactory> {
    let n = keyring.n();
    let f = keyring.f();
    MmrAbaFactory::new(me, n, f, setupfree_core::coin::CoinProtocolFactory::new(me, keyring, secrets))
}

// Re-export for downstream convenience (`Committee` doubles as this
// crate's import of the type).
pub use setupfree_core::committee::{Committee, CommitteeConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_core::TrustedCoinFactory;
    use setupfree_crypto::generate_pki;
    use setupfree_net::{BoxedParty, FifoScheduler, RandomScheduler, Simulation, StopReason};

    type TrustedAba = MmrAba<TrustedCoinFactory>;

    fn trusted_parties(n: usize, f: usize, inputs: &[bool]) -> Vec<BoxedParty<Envelope, bool>> {
        (0..n)
            .map(|i| {
                Box::new(TrustedAba::new(
                    Sid::new("aba"),
                    PartyId(i),
                    n,
                    f,
                    inputs[i],
                    TrustedCoinFactory,
                )) as BoxedParty<Envelope, bool>
            })
            .collect()
    }

    fn check_agreement_validity(outputs: &[Option<bool>], inputs: &[bool], honest: usize) {
        let decided: Vec<bool> = outputs.iter().take(honest).map(|o| o.expect("honest must decide")).collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement violated: {decided:?}");
        let v = decided[0];
        assert!(inputs.contains(&v), "validity violated: output {v}, inputs {inputs:?}");
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        for value in [false, true] {
            let n = 4;
            let inputs = vec![value; n];
            let mut sim = Simulation::new(trusted_parties(n, 1, &inputs), Box::new(FifoScheduler::default()));
            let report = sim.run(1_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs);
            for out in sim.outputs() {
                assert_eq!(out.unwrap(), value);
            }
        }
    }

    #[test]
    fn mixed_inputs_agree_under_random_schedules() {
        for seed in 0..15 {
            let n = 4;
            let inputs = vec![seed % 2 == 0, true, false, seed % 3 == 0];
            let mut sim = Simulation::new(
                trusted_parties(n, 1, &inputs),
                Box::new(RandomScheduler::new(seed)),
            );
            let report = sim.run(2_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            check_agreement_validity(&sim.outputs(), &inputs, n);
        }
    }

    #[test]
    fn larger_system_with_mixed_inputs() {
        let n = 7;
        let f = 2;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        for seed in 0..5 {
            let mut sim =
                Simulation::new(trusted_parties(n, f, &inputs), Box::new(RandomScheduler::new(seed)));
            let report = sim.run(5_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            check_agreement_validity(&sim.outputs(), &inputs, n);
        }
    }

    #[test]
    fn tolerates_f_silent_parties() {
        let n = 7;
        let f = 2;
        let inputs: Vec<bool> = (0..n).map(|i| i < 4).collect();
        for seed in 0..5 {
            let parties = trusted_parties(n, f, &inputs);
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            sim.silence(PartyId(5));
            sim.silence(PartyId(6));
            let report = sim.run(5_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            check_agreement_validity(&sim.outputs(), &inputs, 5);
        }
    }

    #[test]
    fn full_setup_free_stack_small() {
        // ABA whose every round flips the real private-setup-free Coin.
        let n = 4;
        let (keyring, secrets) = generate_pki(n, 31);
        let keyring = Arc::new(keyring);
        let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
        let inputs = [true, false, true, false];
        let parties: Vec<BoxedParty<Envelope, bool>> = (0..n)
            .map(|i| {
                let factory =
                    setupfree_core::coin::CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
                Box::new(MmrAba::new(Sid::new("aba-full"), PartyId(i), n, 1, inputs[i], factory))
                    as BoxedParty<Envelope, bool>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(3)));
        let report = sim.run(50_000_000);
        assert_eq!(report.reason, StopReason::AllOutputs);
        check_agreement_validity(&sim.outputs(), &inputs, n);
    }

    fn committee_parties(
        n: usize,
        committee: &Committee,
        inputs: &[bool],
    ) -> Vec<BoxedParty<Envelope, bool>> {
        (0..n)
            .map(|i| {
                Box::new(TrustedAba::with_committee(
                    Sid::new("committee-aba"),
                    PartyId(i),
                    n,
                    (n - 1) / 3,
                    inputs[i],
                    TrustedCoinFactory,
                    committee.clone(),
                )) as BoxedParty<Envelope, bool>
            })
            .collect()
    }

    #[test]
    fn committee_aba_decides_for_members_and_listeners() {
        let n = 22;
        let committee = Committee::sample(
            &CommitteeConfig::new(10, "aba"),
            &0xFEEDu64.to_le_bytes(),
            n,
        );
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        for seed in 0..5 {
            let mut sim = Simulation::new(
                committee_parties(n, &committee, &inputs),
                Box::new(RandomScheduler::new(seed)),
            );
            let report = sim.run(5_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            let outputs = sim.outputs();
            let decided: Vec<bool> = outputs.iter().map(|o| o.unwrap()).collect();
            assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement incl. listeners");
            // Committee validity: the decision is some *member's* input.
            let member_inputs: Vec<bool> =
                committee.members().iter().map(|p| inputs[p.index()]).collect();
            assert!(member_inputs.contains(&decided[0]));
        }
    }

    #[test]
    fn committee_aba_tolerates_f_c_byzantine_members() {
        let n = 22;
        let committee = Committee::sample(
            &CommitteeConfig::new(10, "aba"),
            &0xFEEDu64.to_le_bytes(),
            n,
        );
        let f_c = committee.f();
        assert_eq!(f_c, 3);
        let inputs = vec![true; n];
        for seed in 0..5 {
            let parties = committee_parties(n, &committee, &inputs);
            let corrupt: Vec<usize> =
                committee.members().iter().take(f_c).map(|p| p.index()).collect();
            let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
            for &c in &corrupt {
                sim.silence(PartyId(c));
            }
            let report = sim.run(5_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}");
            let outputs = sim.outputs();
            for (i, out) in outputs.iter().enumerate() {
                if corrupt.contains(&i) {
                    continue;
                }
                assert_eq!(*out, Some(true), "party {i} under seed {seed}");
            }
        }
    }

    #[test]
    fn non_members_send_nothing_and_drop_coin_traffic() {
        let n = 10;
        let committee = Committee::sample(
            &CommitteeConfig::new(4, "aba"),
            &7u64.to_le_bytes(),
            n,
        );
        let listener = (0..n).find(|&i| !committee.is_member(PartyId(i))).unwrap();
        let mut aba = TrustedAba::with_committee(
            Sid::new("quiet"),
            PartyId(listener),
            n,
            3,
            true,
            TrustedCoinFactory,
            committee.clone(),
        );
        assert!(aba.on_activation().is_empty(), "listeners never speak");
        // Coin-path traffic is dropped, not buffered (the listener will
        // never mount round coins).
        let member = committee.members()[0];
        let env = Envelope::seal(
            InstancePath::of(setupfree_net::PathSeg::new(K_COIN, 1)),
            &42u64,
        );
        let step = aba.on_message(member, env);
        assert!(step.is_empty());
        assert_eq!(aba.buffered_coin_messages(), 0, "listeners must not buffer coin traffic");
        // Adoption: f_c + 1 = 2 member Finishes decide the listener.
        for &m in committee.members().iter().take(2) {
            let fin = Envelope::seal(InstancePath::root(), &AbaMessage::Finish { value: false });
            let _ = aba.on_message(m, fin);
        }
        assert_eq!(aba.output(), Some(false));
    }

    #[test]
    fn message_wire_roundtrip() {
        let msgs: Vec<AbaMessage> = vec![
            AbaMessage::BVal { round: 3, value: true },
            AbaMessage::Aux { round: 0, value: false },
            AbaMessage::Finish { value: true },
        ];
        for msg in msgs {
            let env = Envelope::seal(InstancePath::root(), &msg);
            let bytes = setupfree_wire::to_bytes(&env);
            let decoded: Envelope = setupfree_wire::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, env);
            assert_eq!(decoded.open::<AbaMessage>(), Some(msg));
        }
        assert!(setupfree_wire::from_bytes::<AbaMessage>(&[9]).is_err());
    }

    #[test]
    fn expected_rounds_are_small_with_common_coin() {
        // With a perfectly common coin the expected number of rounds is ≤ 2-3;
        // check the decided round never grows absurdly across seeds.
        for seed in 0..10 {
            let n = 4;
            let inputs = vec![seed % 2 == 0, seed % 3 == 0, true, false];
            let mut sim = Simulation::new(
                trusted_parties(n, 1, &inputs),
                Box::new(RandomScheduler::new(100 + seed)),
            );
            let report = sim.run(2_000_000);
            assert_eq!(report.reason, StopReason::AllOutputs);
            assert!(
                sim.metrics().rounds_to_all_outputs().unwrap() < 200,
                "causal depth unexpectedly large"
            );
        }
    }
}
