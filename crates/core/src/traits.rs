//! Pluggability traits.
//!
//! The paper emphasises that its common coin and leader election are *not*
//! tied to one particular agreement protocol: the coin "can be directly
//! plugged into many existing ABA protocols" and the election "is pluggable
//! in all existing VBA protocols".  These factory traits are how that
//! pluggability is expressed in code: the ABA is generic over a
//! [`CoinFactory`], the Election over an [`AbaFactory`], and the VBA over an
//! [`ElectionFactory`].
//!
//! Factories produce `ProtocolInstance<Message = Envelope>`s — the
//! instances a parent mounts in its session [`Router`](setupfree_net::Router).
//! Composite protocols (the real Coin, the MMR ABA, the Election) exchange
//! envelopes directly; message-typed leaf protocols (the trusted coin, the
//! local-coin baseline) are adapted with [`Leaf`](setupfree_net::Leaf).

use setupfree_net::{Envelope, ProtocolInstance, Sid, Step};

use crate::coin::CoinOutput;
use crate::election::ElectionOutput;

/// Creates fresh common-coin instances on demand (one per ABA round).
pub trait CoinFactory {
    /// The coin protocol instance type.
    type Instance: ProtocolInstance<Message = Envelope, Output = CoinOutput>;

    /// Creates the coin instance with session identifier `sid` for this
    /// party.
    fn create(&self, sid: Sid) -> Self::Instance;

    /// Creates the coin for a *later round* of the same agreement, given the
    /// first round's coin.  Coins whose setup phase is reusable across
    /// rounds (the paper's seeding, §6.1) override this to share that setup
    /// with `first` instead of re-running it — the real
    /// [`Coin`](crate::coin::Coin) reads the [`SeedPool`](crate::coin::SeedPool)
    /// that `first` hosts; the default ignores the sibling and builds an
    /// independent instance.
    fn create_sibling(&self, sid: Sid, _first: &Self::Instance) -> Self::Instance {
        self.create(sid)
    }

    /// Re-evaluates `coin`'s pending conditions although no envelope of its
    /// own arrived.  The ABA calls this on every live round's coin after
    /// another round's coin processed traffic: a sibling built by
    /// [`create_sibling`](Self::create_sibling) can be unblocked by a seed
    /// landing in the first round's pool.  Coins that share nothing — the
    /// default — have nothing to re-evaluate.
    fn poke(&self, _coin: &mut Self::Instance) -> Step<Envelope> {
        Step::none()
    }
}

/// Creates a binary-agreement instance on demand (the Election protocol
/// spawns exactly one, Alg 5 line 12).
pub trait AbaFactory {
    /// The binary agreement instance type.
    type Instance: ProtocolInstance<Message = Envelope, Output = bool>;

    /// Creates an ABA instance with session identifier `sid` and the given
    /// input bit for this party.
    fn create(&self, sid: Sid, input: bool) -> Self::Instance;
}

/// Creates a leader-election instance on demand (one per VBA view).
pub trait ElectionFactory {
    /// The election instance type.
    type Instance: ProtocolInstance<Message = Envelope, Output = ElectionOutput>;

    /// Creates an election instance with session identifier `sid` for this
    /// party.
    fn create(&self, sid: Sid) -> Self::Instance;
}
