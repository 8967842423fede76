//! Fold-strategy parity: for random databases, selections, and batch
//! geometries, both server fold strategies — the paper's incremental
//! loop (the reference) and the precomputed per-database plan (the
//! production path) — decrypt to the **bit-identical** selected sum,
//! which equals the plaintext oracle. The same encrypted frames are
//! replayed into each strategy's session, so any divergence is the
//! fold's fault, not the randomness's.
//!
//! Also proves the resume story for [`FoldStrategy::Precomputed`]: a
//! checkpoint taken mid-stream under the plan resumes correctly —
//! through a rebuilt plan, through a caller-shared plan, and across
//! strategies in both directions, `Incremental ↔ Precomputed` (the
//! checkpoint is strategy-agnostic by construction, so cross-strategy
//! resume is *correct*, not rejected).

use std::sync::{Arc, OnceLock};

use pps_bignum::MultiExpPlan;
use pps_crypto::PaillierKeypair;
use pps_protocol::messages::{Hello, IndexBatch, Product};
use pps_protocol::{Database, FoldStrategy, Selection, ServerSession};
use pps_transport::Frame;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One keypair for the whole suite (keygen dwarfs every case).
fn keypair() -> &'static PaillierKeypair {
    static KP: OnceLock<PaillierKeypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xf01d_9a41);
        PaillierKeypair::generate(128, &mut rng).unwrap()
    })
}

/// Encrypts `bits` once and chunks the stream into `batch`-sized
/// frames — the identical byte-for-byte input for every strategy.
fn encode_query(bits: &[u64], batch: usize, rng: &mut StdRng) -> Vec<Frame> {
    let kp = keypair();
    let hello = Hello {
        modulus: kp.public.n().clone(),
        total: bits.len() as u64,
        batch_size: batch as u32,
        trace: None,
    }
    .encode()
    .unwrap();
    let cts: Vec<_> = bits
        .iter()
        .map(|&b| kp.public.encrypt_u64(b, rng).unwrap())
        .collect();
    std::iter::once(hello)
        .chain(cts.chunks(batch).enumerate().map(|(seq, chunk)| {
            IndexBatch {
                seq: seq as u64,
                ciphertexts: chunk.to_vec(),
            }
            .encode(&kp.public)
            .unwrap()
        }))
        .collect()
}

/// Replays pre-encoded frames into a fresh session and returns the
/// decrypted sum (as the raw decrypted `Uint`, so equality between
/// strategies is bit-level, not merely numeric-after-truncation).
fn replay(db: &Database, frames: &[Frame], strategy: FoldStrategy) -> (u128, Vec<u8>) {
    let kp = keypair();
    let mut session = ServerSession::with_fold(db, strategy);
    let mut reply = None;
    for frame in frames {
        reply = session.on_frame(frame).unwrap();
    }
    let product = Product::decode(&reply.expect("last batch completes"), &kp.public).unwrap();
    let sum = kp.secret.decrypt(&product.ciphertext).unwrap();
    (sum.to_u128().unwrap(), sum.to_bytes_be())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_fold_strategies_decrypt_to_the_identical_oracle_sum(
        values in prop::collection::vec(0u64..1_000_000, 1..48),
        seed in any::<u64>(),
        batch in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Database::new(values.clone()).unwrap();
        let bits: Vec<u64> = (0..values.len()).map(|_| rng.gen_range(0u64..2)).collect();
        let oracle = db.oracle_sum(&Selection::weighted(bits.clone())).unwrap();
        let frames = encode_query(&bits, batch, &mut rng);

        let (inc, inc_bytes) = replay(&db, &frames, FoldStrategy::Incremental);
        let (pre, pre_bytes) = replay(&db, &frames, FoldStrategy::Precomputed);

        prop_assert_eq!(inc, oracle);
        prop_assert_eq!(pre, oracle);
        // Bit-identical plaintexts, not merely equal u128 projections.
        prop_assert_eq!(&pre_bytes, &inc_bytes);
    }

    /// A checkpoint taken under `Precomputed` mid-stream resumes
    /// correctly — under a rebuilt plan, a shared plan, or the *other*
    /// strategy, and back — and every resumed path decrypts to the
    /// oracle sum.
    #[test]
    fn precomputed_checkpoints_resume_correctly_and_cross_strategy(
        values in prop::collection::vec(0u64..1_000_000, 4..32),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Database::new(values.clone()).unwrap();
        let bits: Vec<u64> = (0..values.len()).map(|_| rng.gen_range(0u64..2)).collect();
        let oracle = db.oracle_sum(&Selection::weighted(bits.clone())).unwrap();
        let batch = (values.len() / 2).max(1);
        let frames = encode_query(&bits, batch, &mut rng);
        prop_assume!(frames.len() >= 3); // hello + at least two batches

        // Drive the first batch under Precomputed, then checkpoint.
        let mut first = ServerSession::with_fold(&db, FoldStrategy::Precomputed);
        first.on_frame(&frames[0]).unwrap();
        first.on_frame(&frames[1]).unwrap();
        let cp = first.checkpoint().expect("mid-stream checkpoint");

        let finish = |mut session: ServerSession<'_>| {
            let mut reply = None;
            for frame in &frames[2..] {
                reply = session.on_frame(frame).unwrap();
            }
            let product =
                Product::decode(&reply.expect("final batch replies"), &kp.public).unwrap();
            kp.secret
                .decrypt(&product.ciphertext)
                .unwrap()
                .to_u128()
                .unwrap()
        };

        // Same strategy, plan rebuilt from the database.
        let rebuilt =
            ServerSession::resume(&db, FoldStrategy::Precomputed, cp.clone()).unwrap();
        prop_assert_eq!(finish(rebuilt), oracle);

        // Same strategy, caller-shared plan (the TcpServer path).
        let plan = Arc::new(MultiExpPlan::build(db.values()));
        let shared = ServerSession::resume_with_plan(&db, plan, cp.clone()).unwrap();
        prop_assert_eq!(finish(shared), oracle);

        // Cross-strategy: the checkpoint carries only accumulator and
        // cursor, so the paper's loop may continue it.
        let crossed = ServerSession::resume(&db, FoldStrategy::Incremental, cp).unwrap();
        prop_assert_eq!(finish(crossed), oracle);

        // And the reverse direction: checkpoint under Incremental,
        // continue under Precomputed.
        let mut inc = ServerSession::with_fold(&db, FoldStrategy::Incremental);
        inc.on_frame(&frames[0]).unwrap();
        inc.on_frame(&frames[1]).unwrap();
        let cp_inc = inc.checkpoint().expect("mid-stream checkpoint");
        let back = ServerSession::resume(&db, FoldStrategy::Precomputed, cp_inc).unwrap();
        prop_assert_eq!(finish(back), oracle);
    }
}
