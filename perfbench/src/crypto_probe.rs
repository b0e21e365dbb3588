//! The `crypto.*` metrics: the primitives the protocols lean on, called
//! directly at the workload's own n and PKI (toy cost model: a ~62-bit
//! group, and a simulated pairing that costs one field multiplication).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use setupfree_crypto::pvss::{verify_single_dealer_batch, PvssParams, PvssScript};
use setupfree_crypto::{
    multiexp, GroupElement, Keyring, PartySecrets, PedersenCommitment, Polynomial, QuorumCert,
    Scalar, Signature,
};

use crate::report::{metric, Metric};
use crate::stats::percentile;

/// Median per-call time of `op` in µs over seven batches of about 5 ms.
fn time_us(mut op: impl FnMut()) -> f64 {
    op();
    let once = Instant::now();
    op();
    let per_call = once.elapsed().as_secs_f64().max(1e-8);
    let iters = ((0.005 / per_call) as usize).clamp(1, 100_000);
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    percentile(&batches, 0.5).expect("seven batches")
}

pub fn measure(keyring: &Keyring, secrets: &[Arc<PartySecrets>], out: &mut Vec<Metric>) {
    let n = keyring.n();
    let f = keyring.f();
    let q = n - f;
    let keys = keyring.sig_key_slice();
    let (ctx, msg) = (
        b"perfbench/crypto".as_slice(),
        b"certified value".as_slice(),
    );
    let mut rng = StdRng::seed_from_u64(n as u64);

    // Quorum certificates over n − f signers, and one Schnorr signature.
    let signed: Vec<(usize, Signature)> =
        (0..q).map(|i| (i, secrets[i].sig.sign(ctx, msg))).collect();
    let qc = QuorumCert::new(q, &signed, keys, ctx, msg).expect("honest signatures aggregate");
    let qc_aggregate = time_us(|| {
        black_box(QuorumCert::new(q, black_box(&signed), keys, ctx, msg).is_ok());
    });
    let qc_verify = time_us(|| assert!(black_box(&qc).verify(keys, ctx, msg)));
    let sig_verify = time_us(|| assert!(keys[0].verify(ctx, msg, black_box(&signed[0].1))));

    // n single-dealer PVSS transcripts at the seeding's degree 2f.
    let params = PvssParams::new(n, 2 * f);
    let eks = keyring.pvss_eks();
    let scripts: Vec<PvssScript> = (0..n)
        .map(|d| {
            PvssScript::deal(
                &params,
                &eks,
                &secrets[d].sig,
                d,
                Scalar::random(&mut rng),
                &mut rng,
            )
        })
        .collect();
    let entries: Vec<(usize, &PvssScript)> = scripts.iter().enumerate().collect();
    let entropy = secrets[0].pvss_dk.batch_entropy();
    let pvss = time_us(|| {
        let flags = verify_single_dealer_batch(&params, &eks, keys, black_box(&entries), &entropy);
        assert!(flags.iter().all(|&ok| ok));
    });

    // n Pedersen openings of one AVSS dealing (degree f, points 1..=n).
    let a = Polynomial::random(f, &mut rng);
    let b = Polynomial::random(f, &mut rng);
    let commitment = PedersenCommitment::commit(&a, &b);
    let shares: Vec<(usize, Scalar, Scalar)> = (1..=n)
        .map(|x| (x, a.eval_at_index(x), b.eval_at_index(x)))
        .collect();
    let share_entropy = secrets[0].sig.batch_entropy();
    let pedersen = time_us(|| {
        let flags = commitment.verify_shares_batch(black_box(&shares), &share_entropy);
        assert!(flags.iter().all(|&ok| ok));
    });

    let (vrf_out, proof) = secrets[0].vrf.eval(ctx, msg);
    let vrf = time_us(|| {
        assert!(keyring
            .vrf_key(0)
            .verify(ctx, msg, black_box(&vrf_out), &proof))
    });

    // One multi-exponentiation at a certificate's 2(n − f) bases.
    let bases: Vec<GroupElement> = (0..2 * q)
        .map(|_| GroupElement::generator().pow(Scalar::random(&mut rng)))
        .collect();
    let exps: Vec<Scalar> = (0..2 * q).map(|_| Scalar::random(&mut rng)).collect();
    let multi = time_us(|| {
        black_box(multiexp::multi_exp(black_box(&bases), &exps));
    });

    out.push(metric("crypto.qc_verify_us", Some(qc_verify), "us"));
    out.push(metric("crypto.qc_aggregate_us", Some(qc_aggregate), "us"));
    out.push(metric("crypto.sig_verify_us", Some(sig_verify), "us"));
    out.push(metric("crypto.pvss_batch_verify_us", Some(pvss), "us"));
    out.push(metric(
        "crypto.pedersen_batch_verify_us",
        Some(pedersen),
        "us",
    ));
    out.push(metric("crypto.vrf_verify_us", Some(vrf), "us"));
    out.push(metric(
        "crypto.multi_exp_ns_per_base",
        Some(multi * 1e3 / (2 * q) as f64),
        "ns",
    ));
}
