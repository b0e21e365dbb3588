//! Wire-compatibility of the session-router envelope across every composite
//! protocol.
//!
//! PR 4 replaced the per-protocol nested message enums with one flat wire
//! format: `Envelope { path, payload }`, encoded once at the leaf.  This
//! suite asserts that **every composite protocol's messages survive
//! `to_bytes`/`from_bytes` through the new envelope**: whatever a protocol
//! instance emits — activation traffic and first-level responses alike —
//! decodes back to an identical envelope, with a valid instance path.
//!
//! (Deeper traffic is covered exhaustively by the `*_survive_cached_decode`
//! tests beside this file: in debug builds the simulator round-trips every
//! send through the codec — charged length, decode and re-encoding — and
//! `Payload::open` re-encodes every memoized decode it hands out, asserting
//! byte equality, so full end-to-end runs of each protocol property-check
//! the envelope for every message exchanged.)
//!
//! The decode fuzz at the end feeds every `codec!` type random bytes, after
//! a tag byte for the message enums: decoding never panics, and a decode
//! that succeeds re-encodes to exactly its input, so no message has two
//! encodings.

use std::sync::Arc;

use proptest::prelude::*;
use setupfree::app::adkg::AdkgMessage;
use setupfree::app::beacon::BeaconMessage;
use setupfree::crypto::pvss::PvssEncryptionKey;
use setupfree::crypto::{
    PvssSecret, PvssShare, QuorumCert, Signature, VerifyingKey, VrfOutput, VrfProof, VrfPublicKey,
};
use setupfree::prelude::*;
use setupfree::wire::{Decode, Encode};
use setupfree_aba::setup_free_aba_factory;
use setupfree_app::adkg::Adkg;
use setupfree_net::mux::MAX_PATH_SEGMENTS;
use setupfree_net::Step;

fn keys(n: usize, seed: u64) -> (Arc<Keyring>, Vec<Arc<PartySecrets>>) {
    let (keyring, secrets) = generate_pki(n, seed);
    (Arc::new(keyring), secrets.into_iter().map(Arc::new).collect())
}

/// Asserts every envelope of `step` roundtrips bit-exactly and carries a
/// well-formed path, returning the envelopes for further feeding.
fn assert_roundtrip(protocol: &str, step: &Step<Envelope>) -> Vec<Envelope> {
    assert!(!step.outgoing.is_empty() || protocol == "beacon-quiet", "{protocol}: empty step");
    step.outgoing
        .iter()
        .map(|o| {
            let bytes = setupfree::wire::to_bytes(&o.msg);
            let decoded: Envelope = setupfree::wire::from_bytes(&bytes).unwrap_or_else(|e| {
                panic!("{protocol}: envelope failed to decode: {e} ({:?})", o.msg)
            });
            assert_eq!(decoded, o.msg, "{protocol}: envelope changed across the wire");
            assert_eq!(
                setupfree::wire::to_bytes(&decoded),
                bytes,
                "{protocol}: re-encoding changed bytes"
            );
            assert!(decoded.path.depth() <= MAX_PATH_SEGMENTS);
            decoded
        })
        .collect()
}

/// Drives a pair of instances: activates both, cross-feeds P0's activation
/// traffic into P1, and roundtrips everything either emits.
fn exercise<P: ProtocolInstance<Message = Envelope>>(protocol: &str, mut a: P, mut b: P) {
    let step_a = a.on_activation();
    let envs = assert_roundtrip(protocol, &step_a);
    let _ = assert_roundtrip(&format!("{protocol} (peer activation)"), &b.on_activation());
    for env in envs {
        let reply = b.on_message(PartyId(0), env);
        let _ = assert_roundtrip(&format!("{protocol} (reply)"), &Step {
            outgoing: reply
                .outgoing
                .into_iter()
                .chain(std::iter::once(setupfree_net::Outgoing {
                    dest: setupfree_net::Dest::All,
                    // Pad with a known-good envelope so the assertion helper
                    // never sees an empty step (quiet replies are fine).
                    msg: Envelope::seal(InstancePath::root(), &0u8),
                }))
                .collect(),
        });
    }
}

#[test]
fn coin_messages_survive_the_envelope() {
    let n = 4;
    let (keyring, secrets) = keys(n, 71);
    let mk = |i: usize| Coin::new(Sid::new("wc-coin"), PartyId(i), keyring.clone(), secrets[i].clone());
    exercise("coin", mk(0), mk(1));
}

#[test]
fn aba_messages_survive_the_envelope() {
    let n = 4;
    let (keyring, secrets) = keys(n, 72);
    // Both the trusted-coin and the real-coin stacks.
    let mk_trusted = |i: usize| {
        MmrAba::new(Sid::new("wc-aba-t"), PartyId(i), n, 1, i.is_multiple_of(2), TrustedCoinFactory)
    };
    exercise("aba (trusted coin)", mk_trusted(0), mk_trusted(1));
    let mk_real = |i: usize| {
        let factory = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
        MmrAba::new(Sid::new("wc-aba-r"), PartyId(i), n, 1, i.is_multiple_of(2), factory)
    };
    exercise("aba (real coin)", mk_real(0), mk_real(1));
}

#[test]
fn election_messages_survive_the_envelope() {
    let n = 4;
    let (keyring, secrets) = keys(n, 73);
    let mk = |i: usize| {
        let aba = setup_free_aba_factory(PartyId(i), keyring.clone(), secrets[i].clone());
        Election::new(Sid::new("wc-elec"), PartyId(i), keyring.clone(), secrets[i].clone(), aba)
    };
    exercise("election", mk(0), mk(1));
}

#[test]
fn vba_messages_survive_the_envelope() {
    let n = 4;
    let (keyring, secrets) = keys(n, 74);

    let mk = |i: usize| {
        let af = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
        let ef =
            ElectionProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone(), af.clone());
        Vba::new(
            Sid::new("wc-vba"),
            PartyId(i),
            keyring.clone(),
            secrets[i].clone(),
            vec![0x7a, i as u8],
            accept_all(),
            ef,
            af,
        )
    };
    exercise("vba", mk(0), mk(1));

    // A Vote forwards a Confirm byte for byte: run P0's proposal through
    // its peers' acknowledgements until P0 emits its real Confirm, then
    // round-trip a Vote embedding that encoding and feed it to a peer.
    let mut parties: Vec<_> = (0..n).map(mk).collect();
    let propose =
        assert_roundtrip("vba propose", &ProtocolInstance::on_activation(&mut parties[0]));
    let mut confirm = None;
    for i in 1..n {
        let _ = ProtocolInstance::on_activation(&mut parties[i]);
        for env in &propose {
            let acks = parties[i].on_message(PartyId(0), env.clone());
            for ack in assert_roundtrip("vba ack", &acks) {
                let step = parties[0].on_message(PartyId(i), ack);
                let found = step.outgoing.iter().map(|o| &o.msg).find(|env| {
                    matches!(env.open::<VbaMessage>(), Some(VbaMessage::Confirm { .. }))
                });
                confirm = confirm.or(found.cloned());
            }
        }
    }
    let confirm = confirm.expect("P0 confirms once n − f peers acknowledged");
    let vote = Envelope::seal(
        InstancePath::root(),
        &VbaMessage::Vote { round: 0, confirm: Some(confirm.payload.to_vec()) },
    );
    let sent = Step {
        outgoing: vec![setupfree_net::Outgoing { dest: setupfree_net::Dest::All, msg: vote }],
    };
    for env in assert_roundtrip("vba vote", &sent) {
        let Some(VbaMessage::Vote { confirm: Some(embedded), .. }) = env.open::<VbaMessage>()
        else {
            panic!("vba: the Vote lost its Confirm across the wire");
        };
        assert_eq!(embedded, confirm.payload.to_vec(), "vba: the Confirm changed inside the Vote");
        let _ = parties[1].on_message(PartyId(2), env);
    }
}

#[test]
fn adkg_messages_survive_the_envelope() {
    let n = 4;
    let (keyring, secrets) = keys(n, 75);

    let mk = |i: usize| {
        let af = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
        let ef =
            ElectionProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone(), af.clone());
        Adkg::new(Sid::new("wc-adkg"), PartyId(i), keyring.clone(), secrets[i].clone(), ef, af)
    };
    exercise("adkg", mk(0), mk(1));
}

#[test]
fn beacon_messages_survive_the_envelope() {
    let n = 4;
    let (keyring, secrets) = keys(n, 76);
    let mk = |i: usize| {
        let aba = MmrAbaFactory::new(PartyId(i), n, keyring.f(), TrustedCoinFactory);
        RandomBeacon::new(Sid::new("wc-beacon"), PartyId(i), keyring.clone(), secrets[i].clone(), aba, 2)
    };
    exercise("beacon", mk(0), mk(1));
    // The child-GC acknowledgement (the beacon's only local message)
    // roundtrips through the envelope too.
    let done = setupfree::app::beacon::BeaconMessage::Done { epoch: 3 };
    let env = Envelope::seal(InstancePath::root(), &done);
    let bytes = setupfree::wire::to_bytes(&env);
    let decoded: Envelope = setupfree::wire::from_bytes(&bytes).unwrap();
    assert_eq!(decoded.open::<setupfree::app::beacon::BeaconMessage>(), Some(done));
}

#[test]
fn truncated_and_malformed_envelopes_are_rejected_not_panicking() {
    // Any prefix of a real envelope's path header must fail to decode
    // cleanly, and arbitrary junk must never panic.
    let env = Envelope::seal(
        InstancePath::of(setupfree_net::PathSeg::new(3, 7)),
        &(42u64, vec![1u8, 2, 3]),
    );
    let bytes = setupfree::wire::to_bytes(&env);
    for cut in 0..(1 + env.path.as_bytes().len()) {
        assert!(setupfree::wire::from_bytes::<Envelope>(&bytes[..cut]).is_err());
    }
    // A path-length byte that is not a multiple of the segment size.
    assert!(setupfree::wire::from_bytes::<Envelope>(&[1, 0xaa]).is_err());
    // A path-length byte beyond the depth limit.
    let mut deep = vec![255u8];
    deep.extend(std::iter::repeat_n(0u8, 255));
    assert!(setupfree::wire::from_bytes::<Envelope>(&deep).is_err());
}

/// Decode fuzz input for a message enum: a tag below `tags` (every variant's
/// tag and two unknown ones), then up to 96 arbitrary bytes.
fn tagged(tags: u8) -> impl Strategy<Value = Vec<u8>> {
    (0..tags, proptest::collection::vec(any::<u8>(), 0..97)).prop_map(|(tag, body)| {
        let mut bytes = vec![tag];
        bytes.extend(body);
        bytes
    })
}

/// Decode fuzz input for a plain type: up to 96 arbitrary bytes.
fn untagged() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..97)
}

/// Decoding `bytes` as `T` must not panic, and a decode that succeeds must
/// re-encode to exactly `bytes`.
fn decodes_canonically<T: Encode + Decode>(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(value) = setupfree::wire::from_bytes::<T>(bytes) {
        prop_assert_eq!(setupfree::wire::to_bytes(&value), bytes.to_vec());
    }
    Ok(())
}

/// One decode-fuzz property per `codec!` type, 20 000 inputs each.
macro_rules! decode_fuzz {
    ($($name:ident: $ty:ty = $input:expr;)+) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]
            $(
                #[test]
                fn $name(bytes in $input) {
                    decodes_canonically::<$ty>(&bytes)?;
                }
            )+
        }
    };
}

// `tagged(k + 2)`: an enum's k variant tags 0..k, and two unknown tags.
decode_fuzz! {
    aba_message_decodes_canonically: AbaMessage = tagged(3 + 2);
    adkg_message_decodes_canonically: AdkgMessage = tagged(1 + 2);
    beacon_message_decodes_canonically: BeaconMessage = tagged(1 + 2);
    avss_message_decodes_canonically: AvssMessage = tagged(7 + 2);
    coin_message_decodes_canonically: CoinMessage = tagged(2 + 2);
    rbc_message_decodes_canonically: RbcMessage = tagged(3 + 2);
    seeding_message_decodes_canonically: SeedingMessage = tagged(8 + 2);
    vba_message_decodes_canonically: VbaMessage = tagged(5 + 2);
    wcs_message_decodes_canonically: WcsMessage = tagged(3 + 2);
    signature_decodes_canonically: Signature = untagged();
    quorum_cert_decodes_canonically: QuorumCert = untagged();
    verifying_key_decodes_canonically: VerifyingKey = untagged();
    vrf_public_key_decodes_canonically: VrfPublicKey = untagged();
    vrf_output_decodes_canonically: VrfOutput = untagged();
    vrf_proof_decodes_canonically: VrfProof = untagged();
    pvss_encryption_key_decodes_canonically: PvssEncryptionKey = untagged();
    pvss_share_decodes_canonically: PvssShare = untagged();
    pvss_secret_decodes_canonically: PvssSecret = untagged();
    sid_decodes_canonically: Sid = untagged();
}
