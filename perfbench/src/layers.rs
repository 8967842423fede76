//! Per-layer measurements, made from outside each layer: the benchmark
//! times its own calls into the layer's public functions with the
//! workload's own key, database and batch size, and counts the heap
//! allocations those calls make on the calling thread.
//!
//! The probes run interleaved: each round runs every probe once, and a
//! probe reports its median over rounds. Host speed drifts from one
//! second to the next, so probes that a closure ratio compares are
//! measured close together in time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use pps_bignum::{Montgomery, MultiExpPlan, Uint};
use pps_crypto::{BitEncryptionPool, CryptoError};
use pps_protocol::messages::{Hello, IndexBatch};
use pps_protocol::{FoldPlanCache, ProtocolError, ServerSession};
use pps_transport::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc::thread_allocs;
use crate::host::median;
use crate::load::{Inputs, Workload};
use crate::span;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Rounds over all probes.
const ROUNDS: usize = 9;

/// One timed call pattern. `run` performs one round and returns the
/// nanoseconds of its timed part; the metric is the median over rounds
/// of that time divided by `per`.
struct Probe<'a> {
    metric: &'static str,
    per: f64,
    run: Box<dyn FnMut() -> u64 + 'a>,
}

/// Times `f` inside a span named `name`; returns its nanoseconds.
fn timed(name: &'static str, f: impl FnOnce()) -> u64 {
    let s = span::enter(name);
    f();
    s.close()
}

fn crypto(e: pps_bignum::BignumError) -> ProtocolError {
    ProtocolError::Crypto(CryptoError::from(e))
}

/// Measures the `bignum`, `crypto` and `protocol` layers at the
/// workload's key, database and batch size.
pub fn measure(w: &Workload, inputs: &Inputs, seed: u64) -> Result<Metrics, ProtocolError> {
    let kp = inputs.client.keypair();
    let public = &kp.public;
    let n2 = public.n_squared().clone();
    let ctx = Montgomery::new(n2.clone()).map_err(crypto)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e_5000);
    let mut below_n2 = || Uint::random_below(&mut rng, &n2).map_err(crypto);

    let a = ctx.to_mont(&below_n2()?);
    let b = ctx.to_mont(&below_n2()?);
    // The r^N shape: a full-width base and an exponent as wide as N.
    let base = below_n2()?;
    let exp = Uint::random_bits_exact(&mut StdRng::seed_from_u64(seed), public.key_bits());
    let c = below_n2()?;
    let values = inputs.db.values();
    let rows = w.batch.min(w.n);
    let ranges = (w.n / rows).clamp(1, 10);
    let plan = MultiExpPlan::build(values);
    let bases = (0..rows)
        .map(|_| below_n2().map(|x| ctx.to_mont(&x)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut enc_rng = StdRng::seed_from_u64(seed ^ 0x1a7e_5001);
    let mut pool_rng = StdRng::seed_from_u64(seed ^ 0x1a7e_5002);
    let ct = public.encrypt(&Uint::from_u64(123_456_789), &mut enc_rng)?;
    let batch = IndexBatch {
        seq: 0,
        ciphertexts: (0..rows)
            .map(|i| public.encrypt(&Uint::from_u64((i % 2) as u64), &mut enc_rng))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let frame = batch.encode(public)?;
    let session = SessionFrames::new(w, inputs, &batch, ranges)?;
    let one = Uint::from_u64(1);

    let mut probes = vec![
        Probe {
            metric: "bignum.mont_mul_ns",
            per: 2000.0,
            run: Box::new(|| {
                timed("Montgomery::mul", || {
                    for _ in 0..2000 {
                        black_box(ctx.mul(black_box(&a), black_box(&b)));
                    }
                })
            }),
        },
        Probe {
            metric: "bignum.mont_square_ns",
            per: 2000.0,
            run: Box::new(|| {
                timed("Montgomery::square", || {
                    for _ in 0..2000 {
                        black_box(ctx.square(black_box(&a)));
                    }
                })
            }),
        },
        Probe {
            metric: "bignum.modpow_us",
            per: 20.0 * 1e3,
            run: Box::new(|| {
                timed("Montgomery::pow", || {
                    for _ in 0..20 {
                        black_box(
                            ctx.pow(black_box(&base), black_box(&exp))
                                .expect("valid context"),
                        );
                    }
                })
            }),
        },
        Probe {
            metric: "bignum.gcd_us",
            per: 200.0 * 1e3,
            run: Box::new(|| {
                timed("Uint::gcd", || {
                    for _ in 0..200 {
                        black_box(black_box(&c).gcd(public.n()));
                    }
                })
            }),
        },
        Probe {
            metric: "bignum.plan_build_ms",
            per: 1e6,
            run: Box::new(|| {
                timed("MultiExpPlan::build", || {
                    black_box(MultiExpPlan::build(black_box(values)));
                })
            }),
        },
        Probe {
            metric: "bignum.plan_fold_ns_per_row",
            per: (rows * ranges) as f64,
            run: Box::new(|| {
                timed("MultiExpPlan::fold_range_mont", || {
                    for r in 0..ranges {
                        let folded = plan.fold_range_mont(&ctx, &bases, r * rows);
                        black_box(folded.expect("range inside the plan"));
                    }
                })
            }),
        },
        Probe {
            metric: "crypto.encrypt_us",
            per: 40.0 * 1e3,
            run: Box::new(|| {
                timed("PaillierPublicKey::encrypt", || {
                    for _ in 0..40 {
                        black_box(
                            public
                                .encrypt(&one, &mut enc_rng)
                                .expect("plaintext in range"),
                        );
                    }
                })
            }),
        },
        Probe {
            metric: "crypto.decrypt_us",
            per: 20.0 * 1e3,
            run: Box::new(|| {
                timed("PaillierSecretKey::decrypt", || {
                    for _ in 0..20 {
                        black_box(kp.secret.decrypt(black_box(&ct)).expect("valid ciphertext"));
                    }
                })
            }),
        },
        Probe {
            metric: "crypto.validate_us",
            per: 200.0 * 1e3,
            run: Box::new(|| {
                timed("PaillierPublicKey::validate", || {
                    for _ in 0..200 {
                        black_box(
                            public
                                .validate(black_box(ct.raw()))
                                .expect("valid ciphertext"),
                        );
                    }
                })
            }),
        },
        Probe {
            metric: "crypto.pool_fill_us_per_ct",
            per: 50.0 * 1e3,
            run: Box::new(|| {
                let mut pool = BitEncryptionPool::new(public.clone());
                timed("BitEncryptionPool::fill", || {
                    pool.fill(25, 25, &mut pool_rng).expect("pool fill");
                })
            }),
        },
        Probe {
            metric: "protocol.batch_encode_us_per_row",
            per: (10 * rows) as f64 * 1e3,
            run: Box::new(|| {
                timed("IndexBatch::encode", || {
                    for _ in 0..10 {
                        black_box(batch.encode(public).expect("batch fits a frame"));
                    }
                })
            }),
        },
        Probe {
            metric: "protocol.batch_decode_us_per_row",
            per: (10 * rows) as f64 * 1e3,
            run: Box::new(|| {
                timed("IndexBatch::decode", || {
                    for _ in 0..10 {
                        black_box(IndexBatch::decode(&frame, public).expect("valid batch"));
                    }
                })
            }),
        },
        Probe {
            metric: "protocol.on_frame_us_per_row",
            per: (ranges * rows) as f64 * 1e3,
            run: Box::new(|| session.run(|f| timed("ServerSession::on_frame", f)).0),
        },
    ];

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); probes.len()];
    for _ in 0..ROUNDS {
        for (p, s) in probes.iter_mut().zip(&mut samples) {
            s.push((p.run)() as f64 / p.per);
        }
    }
    let mut m: Metrics = probes
        .iter()
        .zip(&samples)
        .map(|(p, s)| (p.metric, median(s)))
        .collect();
    drop(probes);

    // Exact allocation counts, outside the timed rounds.
    let before = thread_allocs();
    for _ in 0..1000 {
        black_box(ctx.mul(black_box(&a), black_box(&b)));
    }
    m.insert(
        "bignum.allocs_per_mont_mul",
        (thread_allocs() - before) as f64 / 1000.0,
    );
    let (_, allocs) = session.run(|f| {
        f();
        0
    });
    m.insert(
        "protocol.allocs_per_row",
        allocs as f64 / (ranges * rows) as f64,
    );
    Ok(m)
}

/// One server session's worth of frames: a `Hello` and `ranges`
/// consecutive index batches (the same ciphertexts under successive
/// sequence numbers), folded by a `Precomputed` `ServerSession` that
/// shares the server's cached plan.
struct SessionFrames<'a> {
    inputs: &'a Inputs,
    hello: Frame,
    batches: Vec<Frame>,
    plan: Arc<MultiExpPlan>,
}

impl<'a> SessionFrames<'a> {
    fn new(
        w: &Workload,
        inputs: &'a Inputs,
        batch: &IndexBatch,
        ranges: usize,
    ) -> Result<Self, ProtocolError> {
        let public = &inputs.client.keypair().public;
        let hello = Hello {
            modulus: public.n().clone(),
            total: w.n as u64,
            batch_size: w.batch as u32,
            trace: None,
        }
        .encode()?;
        let batches = (0..ranges)
            .map(|seq| {
                IndexBatch {
                    seq: seq as u64,
                    ciphertexts: batch.ciphertexts.clone(),
                }
                .encode(public)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let plan = FoldPlanCache::global().get_or_build(&inputs.db, None);
        Ok(SessionFrames {
            inputs,
            hello,
            batches,
            plan,
        })
    }

    /// Feeds one fresh session its `Hello`, then every batch through
    /// `time`, which runs the `on_frame` call it is given and returns
    /// nanoseconds. Returns the summed nanoseconds and the allocations
    /// the batch calls made.
    fn run(&self, mut time: impl FnMut(&mut dyn FnMut()) -> u64) -> (u64, u64) {
        let mut session = ServerSession::with_fold_plan(&self.inputs.db, Arc::clone(&self.plan))
            .expect("plan built for this database");
        session.on_frame(&self.hello).expect("valid hello");
        let (mut ns, mut allocs) = (0, 0);
        for f in &self.batches {
            ns += time(&mut || {
                let before = thread_allocs();
                black_box(session.on_frame(f).expect("valid batch"));
                allocs += thread_allocs() - before;
            });
        }
        (ns, allocs)
    }
}
