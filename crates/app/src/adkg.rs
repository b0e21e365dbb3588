//! Asynchronous distributed key generation (ADKG) on top of the
//! private-setup-free VBA (§7.3).
//!
//! The construction follows the outline the paper gives for AJM+21's ADKG
//! with the VBA swapped for ours: every party multicasts an aggregatable PVSS
//! hiding a random secret; everyone gathers and aggregates `n − f` of them
//! and proposes the aggregate to a single VBA whose external-validity
//! predicate checks "this is a valid PVSS aggregated from ≥ n − f distinct
//! contributions".  The VBA returns one common script; each party decrypts
//! its key share from it.  The resulting threshold key has public commitment
//! `F_0 = g^{s}` with `s` the aggregated secret, reconstructible from any
//! `f + 1` shares.
//!
//! The single VBA instance is mounted in a session [`Router`] at path kind
//! [`K_VBA`] (created once `n − f` contributions are collected; earlier VBA
//! traffic waits in the router's bounded pre-activation buffer, which
//! replaced the hand-rolled `vba_buffer`).  The ADKG's own `Pvss`
//! contribution messages travel at the root path.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use setupfree_core::traits::{AbaFactory, ElectionFactory};
use setupfree_crypto::hash::sha256;
use setupfree_crypto::pairing::G1;
use setupfree_crypto::pvss::{PvssParams, PvssScript, PvssShare};
use setupfree_crypto::scalar::Scalar;
use setupfree_crypto::{Keyring, PartySecrets};
use setupfree_net::mux::{composite_cap, decode_payload, Envelope, InstancePath};
use setupfree_net::{PartyId, ProtocolInstance, Router, Sid, Step};
use setupfree_vba::{Predicate, Vba};
use setupfree_wire::{Decode, Encode, Reader, WireError, Writer};

/// Path kind of the single VBA instance.
pub const K_VBA: u8 = 0;

/// The key material each party obtains from the ADKG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdkgOutput {
    /// Commitment to the group secret (`g₁^s`) — the distributed public key.
    pub public_commitment: G1,
    /// This party's decrypted key share (`ĥ₁^{F(ωᵢ)}`).
    pub share: PvssShare,
    /// How many distinct parties contributed to the agreed script.
    pub contributors: usize,
}

/// The ADKG's *local* messages: PVSS dissemination (VBA traffic travels
/// under [`K_VBA`]).
#[derive(Debug, Clone)]
pub enum AdkgMessage {
    /// A party's PVSS contribution.
    Pvss {
        /// The contributed script.
        script: PvssScript,
    },
}

impl Encode for AdkgMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            AdkgMessage::Pvss { script } => {
                w.write_u8(0);
                script.encode(w);
            }
        }
    }
}

impl Decode for AdkgMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(AdkgMessage::Pvss { script: PvssScript::decode(r)? }),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "AdkgMessage" }),
        }
    }
}

/// One party's ADKG state machine.
pub struct Adkg<EF: ElectionFactory, AF: AbaFactory> {
    sid: Sid,
    me: PartyId,
    keyring: Arc<Keyring>,
    secrets: Arc<PartySecrets>,
    params: PvssParams,
    election_factory: Option<EF>,
    aba_factory: Option<AF>,
    contributions: BTreeMap<usize, PvssScript>,
    vba: Router<Vba<EF, AF>>,
    output: Option<AdkgOutput>,
}

impl<EF: ElectionFactory, AF: AbaFactory> std::fmt::Debug for Adkg<EF, AF> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adkg")
            .field("me", &self.me)
            .field("contributions", &self.contributions.len())
            .field("output", &self.output.is_some())
            .finish_non_exhaustive()
    }
}

impl<EF: ElectionFactory, AF: AbaFactory> Adkg<EF, AF> {
    /// Creates the ADKG state machine for party `me`.  The produced threshold
    /// key uses a degree-`f` sharing (reconstruction threshold `f + 1`).
    pub fn new(
        sid: Sid,
        me: PartyId,
        keyring: Arc<Keyring>,
        secrets: Arc<PartySecrets>,
        election_factory: EF,
        aba_factory: AF,
    ) -> Self {
        let params = PvssParams::new(keyring.n(), keyring.f());
        let n = keyring.n();
        Adkg {
            sid,
            me,
            keyring,
            secrets,
            params,
            election_factory: Some(election_factory),
            aba_factory: Some(aba_factory),
            contributions: BTreeMap::new(),
            vba: Router::with_cap(K_VBA, composite_cap(n)),
            output: None,
        }
    }

    fn n(&self) -> usize {
        self.keyring.n()
    }

    fn quorum(&self) -> usize {
        self.keyring.quorum()
    }

    /// The external-validity predicate of the ADKG's VBA: a valid aggregated
    /// script with at least `n − f` distinct contributions.
    fn predicate(keyring: &Arc<Keyring>, params: PvssParams) -> Predicate {
        let keyring = keyring.clone();
        Arc::new(move |bytes: &[u8]| match setupfree_wire::from_bytes::<PvssScript>(bytes) {
            Ok(script) => {
                script.contributor_count() >= keyring.quorum()
                    && script.verify(&params, &keyring.pvss_eks(), &keyring.sig_keys())
            }
            Err(_) => false,
        })
    }

    fn advance(&mut self) -> Step<Envelope> {
        let mut step = Step::none();
        // Once n − f contributions are collected, aggregate and propose.
        if !self.vba.contains(0) && self.contributions.len() >= self.quorum() {
            let scripts: Vec<PvssScript> = self.contributions.values().cloned().collect();
            let aggregate = PvssScript::aggregate_all(&scripts[..self.quorum()])
                .expect("verified contributions aggregate");
            let proposal = setupfree_wire::to_bytes(&aggregate);
            let vba = Vba::new(
                self.sid.derive("vba", 0),
                self.me,
                self.keyring.clone(),
                self.secrets.clone(),
                proposal,
                Self::predicate(&self.keyring, self.params),
                self.election_factory.take().expect("factory available before VBA creation"),
                self.aba_factory.take().expect("factory available before VBA creation"),
            );
            // Mounting the VBA replays whatever traffic the router buffered
            // before this party had gathered its quorum of contributions.
            step.extend(self.vba.insert(0, vba));
        }
        // Once the VBA decides, decrypt our share.
        if self.output.is_none() {
            if let Some(bytes) = self.vba.get(0).and_then(ProtocolInstance::output) {
                let script = setupfree_wire::from_bytes::<PvssScript>(&bytes)
                    .expect("the VBA's external validity guarantees a well-formed script");
                let share = script.decrypt_share(self.me.index(), &self.secrets.pvss_dk);
                self.output = Some(AdkgOutput {
                    public_commitment: script.public_commitment(),
                    share,
                    contributors: script.contributor_count(),
                });
            }
        }
        step
    }
}

impl<EF: ElectionFactory, AF: AbaFactory> ProtocolInstance for Adkg<EF, AF> {
    type Message = Envelope;
    type Output = AdkgOutput;

    fn on_activation(&mut self) -> Step<Envelope> {
        // Deal our contribution with a derandomized secret.
        let mut seed_bytes = self.sid.as_bytes().to_vec();
        seed_bytes.extend_from_slice(&self.me.index().to_le_bytes());
        seed_bytes.extend_from_slice(b"/adkg/contribution");
        let mut rng =
            StdRng::seed_from_u64(u64::from_le_bytes(sha256(&seed_bytes)[..8].try_into().expect("8 bytes")));
        let secret = Scalar::from_hash(
            "setupfree/adkg/secret",
            &[self.sid.as_bytes(), &self.me.index().to_le_bytes()],
        );
        let script = PvssScript::deal(
            &self.params,
            &self.keyring.pvss_eks(),
            &self.secrets.sig,
            self.me.index(),
            secret,
            &mut rng,
        );
        let mut step =
            Step::multicast(Envelope::seal(InstancePath::root(), &AdkgMessage::Pvss { script }));
        step.extend(self.advance());
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        if from.index() >= self.n() {
            return Step::none();
        }
        let mut step = match msg.path.split_first() {
            None => {
                let contribution = decode_payload::<AdkgMessage>(&msg.payload);
                if let Some(AdkgMessage::Pvss { script }) = contribution {
                    if !self.contributions.contains_key(&from.index())
                        && script.verify_single_dealer(
                            &self.params,
                            &self.keyring.pvss_eks(),
                            &self.keyring.sig_keys(),
                            from.index(),
                        )
                    {
                        self.contributions.insert(from.index(), script);
                    }
                }
                Step::none()
            }
            Some((seg, path)) if seg.kind == K_VBA && seg.index == 0 => {
                self.vba.route(from, seg.index, Envelope { path, payload: msg.payload })
            }
            Some(_) => Step::none(),
        };
        step.extend(self.advance());
        step
    }

    fn output(&self) -> Option<AdkgOutput> {
        self.output.clone()
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.vba.stats()
    }
}
