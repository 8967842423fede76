//! Workloads: their inputs, their set-up, and the closed-loop query loops
//! that send queries to real `TcpServer`s over loopback TCP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pps_crypto::BitEncryptionPool;
use pps_obs::{Collector, EventRecord, Phase, Registry, SpanRecord, Tracer};
use pps_protocol::messages::Hello;
use pps_protocol::messages::{HelloAck, IndexBatch, MsgType, SizeReply, SizeRequest};
use pps_protocol::{
    run_sharded_query, run_sharded_query_with, run_tcp_query, run_tcp_query_observed,
    AggregateStats, Database, FoldPlanCache, FoldStrategy, IndexSource, ProtocolError, QueryObs,
    Selection, ServerObs, ShardQueryConfig, ShutdownHandle, SumClient, TcpQueryConfig, TcpServer,
};
use pps_transport::{Frame, StreamWire, TcpWire, TrafficStats, TransportError, Wire};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::span;

/// Paillier modulus size of every workload (the paper's setting).
pub const KEY_BITS: usize = 512;
/// Distinct selections per workload, sent round-robin.
pub const VECTORS: usize = 3;
/// Socket deadlines for the benchmark's own sessions.
const IO_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Online encryption through `run_tcp_query`.
    Fresh,
    /// Index vectors encrypted offline, replayed frame by frame.
    Replay,
    /// Online encryption through `run_sharded_query` over shard workers.
    Sharded,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Database rows (across all shards).
    pub n: usize,
    pub batch: usize,
    /// Load-generator threads that run queries concurrently.
    pub threads: usize,
    /// TCP connections open at once (a sharded query opens one per leg).
    pub connections: usize,
    pub shards: usize,
    /// Full set-ups made to report the median `setup_s`: many where a
    /// set-up is cheap, so the median covers many keys (prime search
    /// time varies from key to key); few where the offline encryption
    /// makes each one take seconds.
    pub setup_reps: usize,
}

pub const NAMES: [&str; 4] = [
    "fresh_query",
    "preprocessed_fold",
    "session_churn",
    "sharded_query",
];

/// The workload called `name`; `tiny` shrinks the databases for the
/// self-test.
pub fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let name = NAMES.into_iter().find(|&x| x == name)?;
    let pick = |full: usize, small: usize| if tiny { small } else { full };
    let w = |kind, n, threads, connections, shards, setup_reps| Workload {
        name,
        kind,
        n,
        batch: 100,
        threads,
        connections,
        shards,
        setup_reps,
    };
    Some(match name {
        "fresh_query" => w(Kind::Fresh, pick(2_000, 40), 1, 1, 1, 101),
        "preprocessed_fold" => w(Kind::Replay, pick(5_000, 200), 2, 2, 1, 3),
        "session_churn" => w(Kind::Replay, 8, 2, 2, 1, 101),
        "sharded_query" => w(Kind::Sharded, pick(2_000, 40), 1, 2, 2, 101),
        _ => return None,
    })
}

/// One query of the workload: its selection and the oracle's sum.
pub struct Query {
    pub indices: Vec<usize>,
    pub selection: Selection,
    pub expected: u128,
}

/// Everything the seed determines.
pub struct Inputs {
    pub client: Arc<SumClient>,
    pub db: Arc<Database>,
    pub queries: Vec<Query>,
}

/// Draws the key, the database (random 32-bit rows) and the selections
/// (density 0.5) from `seed`. With `corrupt_oracle` every expected sum
/// is off by one, which the run must catch.
pub fn make_inputs(w: &Workload, seed: u64, corrupt_oracle: bool) -> Result<Inputs, ProtocolError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let client = SumClient::generate(KEY_BITS, &mut rng)?;
    let db = Database::random_32bit(w.n, &mut rng)?;
    let mut queries = Vec::with_capacity(VECTORS);
    for _ in 0..VECTORS {
        let selection = Selection::random(w.n, 0.5, &mut rng)?;
        let indices = (0..w.n).filter(|&i| selection.weights()[i] == 1).collect();
        let expected = db.oracle_sum(&selection)? + u128::from(corrupt_oracle);
        queries.push(Query {
            indices,
            selection,
            expected,
        });
    }
    Ok(Inputs {
        client: Arc::new(client),
        db: Arc::new(db),
        queries,
    })
}

/// A `TcpServer` serving on its own thread until stopped.
pub struct Server {
    pub addr: String,
    shutdown: ShutdownHandle,
    thread: JoinHandle<AggregateStats>,
}

impl Server {
    fn start(server: TcpServer) -> Result<Self, ProtocolError> {
        let addr = server.local_addr()?.to_string();
        let shutdown = server.shutdown_handle()?;
        let thread = std::thread::spawn(move || server.serve(None));
        Ok(Server {
            addr,
            shutdown,
            thread,
        })
    }

    /// Stops accepting, drains in-flight sessions and returns what the
    /// serve loop counted.
    pub fn stop(self) -> AggregateStats {
        self.shutdown.shutdown();
        self.thread.join().expect("serve loop panicked")
    }
}

/// A pre-encrypted query: its `Hello` and its index batches, encoded.
pub struct ReplayVector {
    pub hello: Frame,
    pub batches: Vec<Frame>,
}

/// Sums per phase of every span a traced server and client report.
/// The fresh-query traced window runs one query at a time, so the
/// totals taken after each query belong to that query alone.
#[derive(Default)]
pub struct PhaseSums {
    ns: [AtomicU64; 4],
}

impl PhaseSums {
    fn slot(phase: Phase) -> Option<usize> {
        match phase {
            Phase::ClientEncrypt => Some(0),
            Phase::Comm => Some(1),
            Phase::ServerCompute => Some(2),
            Phase::ClientDecrypt => Some(3),
            Phase::Offline => None,
        }
    }

    /// `[client_encrypt, comm, server_compute, client_decrypt]` in
    /// nanoseconds since the last call.
    pub fn take(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.ns[i].swap(0, Ordering::SeqCst))
    }
}

impl Collector for PhaseSums {
    fn record_span(&self, span: SpanRecord) {
        if let Some(i) = span.phase.and_then(Self::slot) {
            let ns = u64::try_from(span.duration().as_nanos()).unwrap_or(u64::MAX);
            self.ns[i].fetch_add(ns, Ordering::SeqCst);
        }
    }
    fn record_event(&self, _: EventRecord) {}
}

/// A workload ready to measure.
pub struct Setup {
    pub inputs: Inputs,
    /// Plain servers (one per shard), as a deployment binds them.
    pub servers: Vec<Server>,
    /// Traced run only: the same databases behind servers that report
    /// into `phases` through a `ServerObs`.
    pub observed: Vec<Server>,
    pub phases: Arc<PhaseSums>,
    pub registry: Arc<Registry>,
    pub replay: Vec<ReplayVector>,
}

impl Setup {
    /// Stops every server; their failure counts summed and the highest
    /// concurrency any of them saw.
    pub fn stop(self) -> AggregateStats {
        let mut total = AggregateStats::default();
        for s in self.servers.into_iter().chain(self.observed) {
            add_aggregate(&mut total, &s.stop());
        }
        total
    }
}

/// Adds `a`'s failure counts to `total` and keeps the higher peak.
pub fn add_aggregate(total: &mut AggregateStats, a: &AggregateStats) {
    total.failed += a.failed;
    total.refused += a.refused;
    total.evicted += a.evicted;
    total.peak_active = total.peak_active.max(a.peak_active);
}

/// Builds the workload from `seed`: key, database, servers bound the
/// way a deployment binds them (512-bit keys, `Precomputed` fold,
/// default engine, limits and admission), the fold plan built ahead of
/// the first query, and for replay workloads the offline encryption of
/// every index vector through the §3.3 bit pool.
pub fn setup(w: &Workload, seed: u64, corrupt: bool, traced: bool) -> Result<Setup, ProtocolError> {
    let inputs = make_inputs(w, seed, corrupt)?;
    let parts: Vec<Arc<Database>> = if w.shards > 1 {
        let per = w.n / w.shards;
        inputs
            .db
            .values()
            .chunks(per)
            .map(|c| Database::new(c.to_vec()).map(Arc::new))
            .collect::<Result<_, _>>()?
    } else {
        vec![Arc::clone(&inputs.db)]
    };
    let bind = |db: &Arc<Database>| -> Result<TcpServer, ProtocolError> {
        FoldPlanCache::global().get_or_build(db, None);
        let server = TcpServer::bind(Arc::clone(db), "127.0.0.1:0", FoldStrategy::Precomputed)?;
        Ok(if w.shards > 1 {
            server.require_shard_handshake()
        } else {
            server
        })
    };
    let servers = parts
        .iter()
        .map(|db| bind(db).and_then(Server::start))
        .collect::<Result<Vec<_>, _>>()?;
    let phases = Arc::new(PhaseSums::default());
    let registry = Arc::new(Registry::new());
    let observed = if traced {
        parts
            .iter()
            .map(|db| {
                let obs = ServerObs::with_tracer(
                    Arc::clone(&registry),
                    Tracer::new(Arc::clone(&phases) as Arc<dyn Collector>),
                );
                bind(db).and_then(|s| Server::start(s.with_observability(obs)))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let replay = if w.kind == Kind::Replay {
        encrypt_offline(w, &inputs, seed)?
    } else {
        Vec::new()
    };
    Ok(Setup {
        inputs,
        servers,
        observed,
        phases,
        registry,
        replay,
    })
}

/// The §3.3 offline phase: fills one `BitEncryptionPool` with exactly
/// the `E(0)`s and `E(1)`s the workload's selections need (on every
/// core), then assembles each selection's batches from it.
fn encrypt_offline(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
) -> Result<Vec<ReplayVector>, ProtocolError> {
    let public = &inputs.client.keypair().public;
    let ones: usize = inputs.queries.iter().map(|q| q.indices.len()).sum();
    let zeros = inputs.queries.len() * w.n - ones;
    let mut pool = BitEncryptionPool::new(public.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ff1_1e00);
    pool.fill_parallel(zeros, ones, crate::host::nproc(), &mut rng)?;
    inputs
        .queries
        .iter()
        .map(|q| {
            let hello = Hello {
                modulus: public.n().clone(),
                total: w.n as u64,
                batch_size: w.batch as u32,
                trace: None,
            }
            .encode()?;
            let batches = q
                .selection
                .weights()
                .chunks(w.batch)
                .enumerate()
                .map(|(seq, chunk)| {
                    let ciphertexts = chunk
                        .iter()
                        .map(|&b| pool.take(b == 1))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(IndexBatch {
                        seq: seq as u64,
                        ciphertexts,
                    }
                    .encode(public)?)
                })
                .collect::<Result<Vec<_>, ProtocolError>>()?;
            Ok(ReplayVector { hello, batches })
        })
        .collect()
}

/// What one completed, checked query cost on the wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct Done {
    /// Payload bytes sent plus received.
    pub bytes: usize,
    /// Frames sent plus received.
    pub frames: usize,
}

impl Done {
    fn from_traffic(t: &TrafficStats) -> Self {
        Done {
            bytes: t.payload_bytes_sent + t.payload_bytes_received,
            frames: t.messages_sent + t.messages_received,
        }
    }

    fn add(self, t: &TrafficStats) -> Self {
        let d = Self::from_traffic(t);
        Done {
            bytes: self.bytes + d.bytes,
            frames: self.frames + d.frames,
        }
    }
}

#[derive(Debug)]
pub enum QueryError {
    /// The query errored, was refused or was evicted.
    Failed(String),
    /// The query returned a sum the oracle disagrees with.
    Wrong(String),
}

impl From<ProtocolError> for QueryError {
    fn from(e: ProtocolError) -> Self {
        QueryError::Failed(e.to_string())
    }
}

impl From<TransportError> for QueryError {
    fn from(e: TransportError) -> Self {
        QueryError::Failed(e.to_string())
    }
}

fn check_sum(got: u128, expected: u128) -> Result<(), QueryError> {
    if got == expected {
        Ok(())
    } else {
        Err(QueryError::Wrong(format!(
            "sum {got} disagrees with the oracle's {expected}"
        )))
    }
}

/// Replies to replayed queries: the first reply per vector is decrypted
/// and checked against the oracle, every later one is byte-compared to
/// that verified product.
pub struct ReplayCheck {
    verified: Mutex<Vec<Option<Vec<u8>>>>,
}

impl ReplayCheck {
    pub fn new() -> Self {
        ReplayCheck {
            verified: Mutex::new(vec![None; VECTORS]),
        }
    }

    fn verify(
        &self,
        client: &SumClient,
        q: &Query,
        v: usize,
        product: &Frame,
    ) -> Result<(), QueryError> {
        let known = self.verified.lock().expect("check lock")[v].clone();
        match known {
            Some(bytes) => {
                let _s = span::enter("byte_compare");
                if product.msg_type == MsgType::Product as u8 && product.payload[..] == bytes[..] {
                    Ok(())
                } else {
                    Err(QueryError::Wrong(format!(
                        "reply to vector {v} differs from its verified product"
                    )))
                }
            }
            None => {
                let _s = span::enter("SumClient::decrypt_product");
                let (sum, _) = client.decrypt_product(product)?;
                let sum = sum
                    .to_u128()
                    .ok_or_else(|| QueryError::Wrong("sum exceeds 128 bits".into()))?;
                check_sum(sum, q.expected)?;
                self.verified.lock().expect("check lock")[v] = Some(product.payload.to_vec());
                Ok(())
            }
        }
    }
}

/// Times every frame the benchmark's own sessions send and receive.
struct SpanWire<W>(W);

impl<W: Wire> Wire for SpanWire<W> {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        let _s = span::enter("Wire::send");
        self.0.send(frame)
    }
    fn recv(&mut self) -> Result<Frame, TransportError> {
        let _s = span::enter("Wire::recv");
        self.0.recv()
    }
    fn stats(&self) -> TrafficStats {
        self.0.stats()
    }
}

/// What the benchmark's own session sends after the handshake.
pub enum Payload<'a> {
    /// Pre-encoded batches (and their `Hello`), checked by `ReplayCheck`.
    Replay(&'a ReplayVector, &'a ReplayCheck),
    /// Online encryption through `SumClient::stream_batches`, checked by
    /// decrypting against the oracle.
    Fresh(&'a mut StdRng),
}

/// One query spoken frame by frame, the way `run_tcp_query` speaks it:
/// size discovery, `Hello`/`HelloAck`, the batches, the `Product`. Each
/// step is its own span.
pub fn own_session(
    addr: &str,
    w: &Workload,
    inputs: &Inputs,
    v: usize,
    payload: Payload<'_>,
) -> Result<Done, QueryError> {
    let q = &inputs.queries[v];
    let client = &inputs.client;
    let mut wire = {
        let _s = span::enter("TcpWire::connect");
        let mut wire = TcpWire::connect(addr)?;
        wire.set_read_timeout(IO_TIMEOUT)?;
        wire.set_write_timeout(IO_TIMEOUT)?;
        SpanWire(wire)
    };
    {
        let _s = span::enter("size_request");
        wire.send(SizeRequest.encode()?)?;
        let n = SizeReply::decode(&wire.recv()?)?.n as usize;
        if n != w.n {
            return Err(QueryError::Failed(format!(
                "server reports {n} rows, not {}",
                w.n
            )));
        }
    }
    let hello = match &payload {
        Payload::Replay(vector, _) => vector.hello.clone(),
        Payload::Fresh(_) => Hello {
            modulus: client.keypair().public.n().clone(),
            total: w.n as u64,
            batch_size: w.batch as u32,
            trace: None,
        }
        .encode()?,
    };
    {
        let _s = span::enter("hello_ack");
        wire.send(hello)?;
        HelloAck::decode(&wire.recv()?)?;
    }
    match payload {
        Payload::Replay(vector, check) => {
            {
                let _s = span::enter("send_batches");
                for f in &vector.batches {
                    wire.send(f.clone())?;
                }
            }
            let product = {
                let _s = span::enter("product_wait");
                wire.recv()?
            };
            check.verify(client, q, v, &product)?;
        }
        Payload::Fresh(rng) => {
            {
                let _s = span::enter("SumClient::stream_batches");
                client.stream_batches(
                    &mut wire,
                    &q.selection,
                    w.batch,
                    &mut IndexSource::Fresh(rng),
                    0,
                )?;
            }
            let product = {
                let _s = span::enter("product_wait");
                wire.recv()?
            };
            let _s = span::enter("SumClient::decrypt_product");
            let (sum, _) = client.decrypt_product(&product)?;
            check_sum(sum.to_u128().unwrap_or(u128::MAX), q.expected)?;
        }
    }
    Ok(Done::from_traffic(&wire.stats()))
}

/// One query through `run_tcp_query` (online encryption, default
/// configuration).
pub fn fresh_query(
    addr: &str,
    inputs: &Inputs,
    v: usize,
    rng: &mut StdRng,
) -> Result<Done, QueryError> {
    let q = &inputs.queries[v];
    let out = {
        let _s = span::enter("run_tcp_query");
        run_tcp_query(
            addr,
            &inputs.client,
            &q.indices,
            &TcpQueryConfig::default(),
            rng,
        )?
    };
    check_sum(out.sum, q.expected)?;
    Ok(Done::from_traffic(&out.traffic))
}

/// The paper's four components of one observed query, in nanoseconds:
/// `[client_encrypt, comm, server_compute, client_decrypt]`.
pub type Components = [u64; 4];

/// One query through `run_tcp_query_observed`, its `QueryObs` sharing
/// the observed server's collector so all four components are seen.
pub fn observed_query(
    addr: &str,
    setup: &Setup,
    v: usize,
    rng: &mut StdRng,
) -> Result<(Done, Components), QueryError> {
    let inputs = &setup.inputs;
    let q = &inputs.queries[v];
    let obs = QueryObs::with_collector(
        Arc::clone(&setup.registry),
        Arc::clone(&setup.phases) as Arc<dyn Collector>,
    );
    setup.phases.take();
    let (out, _report) = {
        let _s = span::enter("run_tcp_query_observed");
        run_tcp_query_observed(
            addr,
            &inputs.client,
            &q.indices,
            &TcpQueryConfig::default(),
            rng,
            &obs,
        )?
    };
    let components = setup.phases.take();
    check_sum(out.sum, q.expected)?;
    Ok((Done::from_traffic(&out.traffic), components))
}

fn shard_config() -> ShardQueryConfig {
    ShardQueryConfig {
        tcp: TcpQueryConfig::default(),
        value_bound: Some(u64::from(u32::MAX)),
    }
}

/// One query through `run_sharded_query` (online encryption, legs run
/// concurrently, partials combined mod M).
pub fn sharded_query(
    addrs: &[String],
    inputs: &Inputs,
    v: usize,
    rng: &mut StdRng,
) -> Result<Done, QueryError> {
    let q = &inputs.queries[v];
    let out = {
        let _s = span::enter("run_sharded_query");
        run_sharded_query(
            addrs,
            &inputs.client,
            &q.indices,
            &shard_config(),
            None,
            rng,
        )?
    };
    check_sum(out.sum, q.expected)?;
    Ok(out
        .legs
        .iter()
        .fold(Done::default(), |d, l| d.add(&l.traffic)))
}

/// A leg's socket that remembers when it last received bytes: the last
/// read of a leg is its `Product`, so that instant ends the leg.
struct LegStream {
    inner: TcpStream,
    last_read: Arc<Mutex<Option<Instant>>>,
}

impl Read for LegStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            *self.last_read.lock().expect("leg clock lock") = Some(Instant::now());
        }
        Ok(n)
    }
}

impl Write for LegStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Per-leg outcome of a traced sharded query.
pub struct LegTiming {
    pub leg_ms: Vec<f64>,
    pub resumes: u32,
}

/// One sharded query through `run_sharded_query_with`, each leg's
/// connector handing out a socket that timestamps its reads, so the
/// time from query start to each leg's `Product` is measured from
/// outside the library.
pub fn sharded_query_timed(
    addrs: &[String],
    inputs: &Inputs,
    v: usize,
    query_id: u64,
    rng: &mut StdRng,
) -> Result<(Done, LegTiming), QueryError> {
    let q = &inputs.queries[v];
    let clocks: Vec<Arc<Mutex<Option<Instant>>>> =
        addrs.iter().map(|_| Arc::new(Mutex::new(None))).collect();
    let legs: Vec<_> = addrs
        .iter()
        .zip(&clocks)
        .map(|(addr, clock)| {
            let clock = Arc::clone(clock);
            move |_attempt: u32| -> Result<StreamWire<LegStream>, ProtocolError> {
                let io =
                    |e: std::io::Error| ProtocolError::Transport(TransportError::Io(e.to_string()));
                let inner = TcpStream::connect(addr).map_err(io)?;
                inner.set_nodelay(true).map_err(io)?;
                inner.set_read_timeout(IO_TIMEOUT).map_err(io)?;
                inner.set_write_timeout(IO_TIMEOUT).map_err(io)?;
                Ok(StreamWire::new(LegStream {
                    inner,
                    last_read: Arc::clone(&clock),
                }))
            }
        })
        .collect();
    let parent = span::current();
    let start = Instant::now();
    let out = {
        let _s = span::enter("run_sharded_query_with");
        run_sharded_query_with(legs, &inputs.client, &q.indices, &shard_config(), None, rng)?
    };
    check_sum(out.sum, q.expected)?;
    let mut leg_ms = Vec::with_capacity(clocks.len());
    for clock in &clocks {
        let end = clock.lock().expect("leg clock lock").unwrap_or(start);
        span::record("shard.leg", parent, query_id, start, end);
        leg_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
    }
    let resumes = out.legs.iter().map(|l| l.resumed_attempts).sum();
    let done = out
        .legs
        .iter()
        .fold(Done::default(), |d, l| d.add(&l.traffic));
    Ok((done, LegTiming { leg_ms, resumes }))
}

/// What a closed-loop window measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Latency of every completed, checked query, connect to sum.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first wrong answer, if any (the run then fails).
    pub wrong: Option<String>,
    pub first_error: Option<String>,
    pub bytes: u64,
    pub frames: u64,
    pub elapsed: Duration,
    /// Process CPU time over the window.
    pub cpu: Duration,
}

impl LoopStats {
    pub fn completed(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn queries_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `threads` closed-loop clients for `window`: each sends its next
/// query only after its previous one returned. Query ids are global and
/// count up from `first_id`; query `id` uses selection
/// `(id - first_id) % VECTORS`. Queries in flight when the window closes
/// finish and count; the window's length is taken when the last one has.
pub fn closed_loop<F>(
    threads: usize,
    window: Duration,
    seed: u64,
    first_id: u64,
    run: F,
) -> LoopStats
where
    F: Fn(u64, usize, &mut StdRng) -> Result<Done, QueryError> + Sync,
{
    let next = AtomicU64::new(first_id);
    let stop = AtomicBool::new(false);
    let total = Mutex::new(LoopStats::default());
    let cpu0 = crate::host::process_cpu();
    let start = Instant::now();
    let deadline = start + window;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (next, stop, total, run) = (&next, &stop, &total, &run);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x5eed_0000 + t as u64));
                let mut mine = LoopStats::default();
                while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                    let id = next.fetch_add(1, Ordering::SeqCst);
                    let v = ((id - first_id) % VECTORS as u64) as usize;
                    span::set_query(id);
                    mine.attempted += 1;
                    let t0 = Instant::now();
                    let result = {
                        let _q = span::enter("query");
                        run(id, v, &mut rng)
                    };
                    match result {
                        Ok(done) => {
                            mine.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            mine.bytes += done.bytes as u64;
                            mine.frames += done.frames as u64;
                        }
                        Err(QueryError::Failed(e)) => {
                            mine.failed += 1;
                            mine.first_error.get_or_insert(e);
                        }
                        Err(QueryError::Wrong(e)) => {
                            mine.wrong = Some(e);
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                }
                span::set_query(0);
                let mut total = total.lock().expect("loop stats lock");
                total.latencies_ms.extend(mine.latencies_ms);
                total.attempted += mine.attempted;
                total.failed += mine.failed;
                total.bytes += mine.bytes;
                total.frames += mine.frames;
                if total.wrong.is_none() {
                    total.wrong = mine.wrong;
                }
                if total.first_error.is_none() {
                    total.first_error = mine.first_error;
                }
            });
        }
    });
    let mut stats = total.into_inner().expect("loop stats lock");
    stats.elapsed = start.elapsed();
    stats.cpu = crate::host::process_cpu().saturating_sub(cpu0);
    stats
}
