//! Crypto work of the setup-free ABA at the benchmark's `aba-sim` shape,
//! pinned by deterministic counters.
//!
//! Every round flips the paper's Coin (n Seedings, n AVSS and one WCS per
//! party), so certificate checks and hashing are most of a decision's
//! work.  The gate pins, per decision, the exact number of
//! `QuorumCert::verify` calls (`sig::qc_verify_count`) and of SHA-256 block
//! compressions (`hash::compression_count`).  Both count per thread and the
//! simulation runs on the test thread, so the counts are machine-independent.
//! The delivery count is pinned beside them: it fixes the schedule, so a
//! change in work can be told apart from a change in what was delivered.
//! So is the number of payload decodes (`mux::payload_decode_count`, also
//! per thread), and the number of heap allocations the run makes (`alloc`,
//! `alloc_zeroed` and `realloc` calls on the test thread, counted by the
//! global allocator below).
//!
//! What keeps the counts where they are: a signature absorbs its message
//! once per call, not once per signer; a certificate's builder (one
//! `sig::CertCollector` each for the AVSS dealer, the Seeding leader, the
//! WCS and the VBA proposer) absorbs its message once and checks each
//! signature once, on arrival; a Seeding party verifies the leader's
//! commitment certificate once, although it arrives twice; a certificate's
//! aggregation weights come two per compression from one counter-mode
//! stream over its transcript digest, and the AVSS cipher's keystream
//! absorbs its key once per ciphertext, not once per block; `Echo`/`Ready`
//! votes are compared by equality instead of hashed; and a payload's first
//! typed decode is memoized on its shared allocation.
//! Without that memo (a thread-local window of recent leaf decodes that
//! evicted a multicast before most of its copies arrived, and no caching of
//! root-path messages) a decision took 9 451 / 25 838 / 33 413 decodes for
//! seeds 0 / 1 / 2: the ceiling for the pinned column.  When each builder
//! checked every signature on arrival and again inside `QuorumCert::new`,
//! absorbing the message once per check, a decision took 34 998 / 59 050 /
//! 71 260 compressions.  When each aggregation weight then hashed its own
//! 96-byte input (`setupfree/sig/v2`) and every keystream block hashed the
//! whole key again, it took 31 722 / 54 370 / 65 878: the ceiling for the
//! compression column.
//!
//! The pinned allocations are a debug-build count (`cargo test` compiles
//! this file in debug), so they include the codec round trip a debug build
//! makes of every send; a release build checks its own figures.  Each
//! in-flight copy of a send carries a clone of the sent envelope, an `Arc`
//! bump on its payload.  When the simulator instead encoded every send into
//! a fresh shared buffer and decoded it back into a second payload at the
//! first delivery, a decision took 154 785 / 388 239 / 503 544 allocations
//! for seeds 0 / 1 / 2 in a debug build (84 019 / 208 887 / 270 884 in
//! release).  When every Coin also mounted `n` gather RBCs that nothing
//! read in the paper's WCS mode, a decision took 127 002 / 318 822 /
//! 413 592 in a debug build (72 341 / 182 832 / 237 634 in release).  When
//! the four certificate builders kept their own signature lists and signer
//! sets and re-encoded their message for every signature, it took
//! 126 287 / 316 677 / 410 732 (71 626 / 180 687 / 234 774 in release):
//! the ceiling for the pinned column.  Allocation counts also depend on the
//! toolchain's standard library, so a compiler upgrade may move them
//! without a change here.
//!
//! Shape: n = 13, f = 4, all honest, `CoinProtocolFactory` in every round,
//! mixed inputs (party 0 proposes 0, party 1 proposes 1, the rest by
//! seed), `RandomScheduler`, three seeds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use setupfree_aba::MmrAba;
use setupfree_core::coin::CoinProtocolFactory;
use setupfree_crypto::hash::compression_count;
use setupfree_crypto::sig::qc_verify_count;
use setupfree_crypto::{generate_pki, PartySecrets};
use setupfree_net::mux::{payload_decode_count, Envelope};
use setupfree_net::{BoxedParty, PartyId, RandomScheduler, Sid, Simulation, StopReason};

const N: usize = 13;
const F: usize = 4;

struct Counting;

std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only bumps a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One decision's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    deliveries: u64,
    qc_verifies: u64,
    compressions: u64,
    payload_decodes: u64,
    allocations: u64,
}

/// `(seed, work)` per decision, allocations as a debug build counts them.
const GOLDEN: [(u64, Work); 3] = [
    (0, Work { deliveries: 17_174, qc_verifies: 349, compressions: 26_897, payload_decodes: 2_295, allocations: 124_441 }),
    (1, Work { deliveries: 42_664, qc_verifies: 713, compressions: 44_176, payload_decodes: 5_171, allocations: 311_867 }),
    (2, Work { deliveries: 55_125, qc_verifies: 897, compressions: 52_982, payload_decodes: 6_610, allocations: 404_440 }),
];

/// Allocations per decision, by seed, as a release build counts them (no
/// codec round trip per send).
const RELEASE_ALLOCATIONS: [u64; 3] = [69_780, 175_877, 228_482];

fn inputs(seed: u64) -> Vec<bool> {
    (0..N).map(|p| if p < 2 { p == 1 } else { (seed + p as u64 * 7).is_multiple_of(3) }).collect()
}

#[test]
fn aba_crypto_work_per_decision_is_pinned() {
    let (keyring, secrets) = generate_pki(N, 1);
    let keyring = Arc::new(keyring);
    let secrets: Vec<Arc<PartySecrets>> = secrets.into_iter().map(Arc::new).collect();
    for ((seed, debug_work), release_allocations) in GOLDEN.into_iter().zip(RELEASE_ALLOCATIONS) {
        let expected = if cfg!(debug_assertions) {
            debug_work
        } else {
            Work { allocations: release_allocations, ..debug_work }
        };
        let inputs = inputs(seed);
        let parties: Vec<BoxedParty<Envelope, bool>> = (0..N)
            .map(|i| {
                let coins = CoinProtocolFactory::new(PartyId(i), keyring.clone(), secrets[i].clone());
                let sid = Sid::new(&format!("aba-crypto-work-{seed}"));
                Box::new(MmrAba::new(sid, PartyId(i), N, F, inputs[i], coins))
                    as BoxedParty<Envelope, bool>
            })
            .collect();
        let mut sim = Simulation::new(parties, Box::new(RandomScheduler::new(seed)));
        let (qc_before, hash_before, decodes_before, allocations_before) =
            (qc_verify_count(), compression_count(), payload_decode_count(), allocation_count());
        let report = sim.run(2_000_000);
        let allocations = allocation_count() - allocations_before;
        let work = Work {
            deliveries: report.deliveries,
            qc_verifies: qc_verify_count() - qc_before,
            compressions: compression_count() - hash_before,
            payload_decodes: payload_decode_count() - decodes_before,
            allocations,
        };

        assert_eq!(report.reason, StopReason::AllOutputs, "seed {seed}: termination");
        let decided: Vec<bool> =
            sim.outputs().into_iter().map(|o| o.expect("every party decides")).collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "seed {seed}: agreement");
        assert!(inputs.contains(&decided[0]), "seed {seed}: validity");
        assert_eq!(work, expected, "seed {seed}: crypto work per decision");
    }
}
