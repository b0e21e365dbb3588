//! The paper's primary contribution: the private-setup-free **common coin**
//! (`Coin`, §6.1 / Algorithm 4) and the **leader election with perfect
//! agreement** (`Election`, §7.1 / Algorithm 5), both in the bulletin-PKI
//! model with no private setup.
//!
//! * [`coin::Coin`] composes `n` [`Seeding`](setupfree_seeding::Seeding)
//!   instances (one led by each party, patching that party's VRF with an
//!   unpredictable seed), `n` [`Avss`](setupfree_avss::Avss) instances (each
//!   party confidentially shares its VRF evaluation), one
//!   [`Wcs`](setupfree_wcs::Wcs) (selecting a core of `n − f` completed
//!   AVSSes), a reveal phase, and a largest-VRF amplification round.  With
//!   probability at least 1/3, all honest parties output a common,
//!   unpredictable bit.
//!
//! * [`election::Election`] runs the Coin, reliably broadcasts every party's
//!   speculative largest VRF, and uses a **single** binary agreement to
//!   detect (and repair) the unlucky disagreement cases, yielding a leader
//!   election that always agrees and is unpredictable with probability ≥ 1/3.
//!
//! Pluggability — the paper's headline claim — is expressed through the
//! factory traits in [`traits`]: any ABA implementation can lift the coin to
//! an election, any coin can drive an ABA, and any election can drive a VBA.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coin;
pub mod committee;
pub mod election;
pub mod traits;
pub mod trusted;

pub use coin::{Coin, CoinMessage, CoinOutput, SeedPool, SharedSeeds};
pub use committee::{worst_committee_seed, Committee, CommitteeConfig};
pub use election::{Election, ElectionOutput, ElectionProtocolFactory};
pub use traits::{AbaFactory, CoinFactory, ElectionFactory};
pub use trusted::{TrustedCoin, TrustedCoinFactory, TrustedElection, TrustedElectionFactory};
