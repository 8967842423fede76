//! The event-driven session orchestrator ([`ServeEngine::Event`]).
//!
//! The threaded runtime spends one OS thread per connection, which caps
//! concurrency at the thread count long before it exhausts sockets or
//! CPU. This module multiplexes *every* accepted connection over two
//! small, fixed resources instead:
//!
//! * **One reactor thread** owns the nonblocking listener and every
//!   connection's [`NonBlockingWire`]. Each tick it accepts a burst of
//!   new connections, polls every socket for newly reassembled frames,
//!   flushes buffered replies, evicts deadline violators, and applies
//!   admission control (the same `Refuse`/`Queue` policies as the
//!   threaded engine, with the queue bounded and deadline-aware).
//! * **A bounded pool of `W` workers** executes the protocol steps —
//!   the CPU-heavy homomorphic folds — one job at a time. The reactor
//!   hands a worker the connection's [`SessionFlow`] plus every frame
//!   waiting in its inbox; the worker feeds them through
//!   [`SessionFlow::on_frame`] and sends the flow and the reply frames
//!   back. A connection is never on two workers at once, so session
//!   state needs no locks.
//!
//! Scheduling is round-robin over connections with ready frames, with
//! an optional per-peer cap ([`TcpServer::with_peer_fair_share`]): a
//! single chatty peer can hold at most `k` workers while other peers
//! have frames waiting.
//!
//! The wire dialect is exactly the threaded engine's — both pump the
//! same [`SessionFlow`] — so a client cannot tell the engines apart
//! (PROTOCOL.md §12), and [`AggregateStats`]/[`SessionEvent`] semantics
//! match the threaded runtime event for event.
//!
//! # Why a scan loop, not epoll
//!
//! The workspace forbids unsafe code and vendors no OS-event-queue
//! bindings, so readiness is discovered by scanning nonblocking sockets
//! (`WouldBlock` = not ready) with a ~1 ms sleep on idle ticks. That is
//! O(connections) per tick rather than O(ready), which is the right
//! trade for this repo: the experiments top out at a few thousand
//! loopback sessions, where a full scan costs microseconds.

use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use pps_obs::SpanGuard;
use pps_transport::{Frame, NonBlockingWire, TransportError};

use crate::error::ProtocolError;
use crate::flow::SessionFlow;
use crate::server::{Fold, ServerSession};
use crate::tcp_server::{
    accept_backoff, is_eviction, AggregateStats, SessionDeadline, SessionEvent, TcpServer,
    MAX_CONSECUTIVE_ACCEPT_ERRORS,
};

/// How long the reactor sleeps when a tick made no progress (no accept,
/// no frame, no result, no flush). Bounds idle CPU without adding
/// meaningful latency: a frame arriving mid-sleep waits at most this.
const IDLE_TICK: Duration = Duration::from_millis(1);

/// Most frames a connection may buffer in its inbox before the reactor
/// stops reading its socket (backpressure: TCP flow control pushes back
/// on the peer instead of the reactor buffering without bound).
const INBOX_LIMIT: usize = 64;

/// A unit of work for one worker: every frame currently waiting on one
/// connection, plus the session state machine to feed them through.
struct Job<'a> {
    conn: usize,
    flow: SessionFlow<'a>,
    frames: Vec<Frame>,
}

/// What a worker produced for one [`Job`]. `flow` is `None` exactly
/// when a protocol step panicked (the session state is poisoned and the
/// connection must be torn down as [`SessionEvent::Panicked`]).
struct JobResult<'a> {
    worker: usize,
    conn: usize,
    flow: Option<SessionFlow<'a>>,
    replies: Vec<Frame>,
    resumed_now: bool,
    outcome: Result<(), ProtocolError>,
}

/// Runs protocol steps for whatever connection the reactor assigns,
/// until the job channel closes. Panics in a step are contained here
/// (the reactor thread must never unwind).
fn worker_loop<'a>(index: usize, jobs: Receiver<Job<'a>>, results: Sender<JobResult<'a>>) {
    while let Ok(Job {
        conn,
        mut flow,
        frames,
    }) = jobs.recv()
    {
        let mut replies = Vec::new();
        let mut resumed_now = false;
        let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for frame in &frames {
                let step = flow.on_frame(frame)?;
                resumed_now |= step.resumed_now;
                replies.extend(step.replies);
                if flow.is_done() {
                    break;
                }
            }
            Ok(())
        }));
        let (flow, outcome) = match stepped {
            Ok(outcome) => (Some(flow), outcome),
            Err(_panic) => (None, Ok(())),
        };
        let sent = results.send(JobResult {
            worker: index,
            conn,
            flow,
            replies,
            resumed_now,
            outcome,
        });
        if sent.is_err() {
            return; // reactor gone; nothing left to do
        }
    }
}

/// One admitted connection's reactor-side state.
struct Conn<'a> {
    peer: Option<SocketAddr>,
    wire: NonBlockingWire,
    /// Frames reassembled off the socket, waiting for a worker.
    inbox: VecDeque<Frame>,
    /// `None` while a worker holds the flow (a job is in flight).
    flow: Option<SessionFlow<'a>>,
    in_flight: bool,
    deadline: SessionDeadline,
    /// Set at accept (queue wait counts toward session latency).
    started: Instant,
    /// Last instant bytes arrived or a job was dispatched; drives the
    /// per-read idle timeout, mirroring the threaded engine's re-armed
    /// socket read timeout.
    last_activity: Instant,
    /// The peer half-closed its read side; fail the session once the
    /// inbox drains if the protocol has not completed.
    read_closed: bool,
    /// The protocol completed; flush remaining replies, then finalize.
    done: bool,
    /// Terminal error, applied once no job is in flight.
    error: Option<ProtocolError>,
    /// Records the session span on drop (at finalization), stamped with
    /// the peer's trace context just before.
    span: Option<SpanGuard>,
}

/// A connection parked in the bounded admission queue: accepted and
/// counted, but its socket is left unserviced (exactly like the
/// threaded engine's queued connections) until a slot frees, its
/// deadline expires, or shutdown drops it.
struct QueuedConn {
    id: usize,
    stream: TcpStream,
    peer: Option<SocketAddr>,
    deadline: SessionDeadline,
    enqueued: Instant,
    started: Instant,
}

/// Drives the full serve loop on the event engine. Same contract as
/// [`TcpServer::serve_with`]: returns when `max_sessions` connections
/// have been accepted (or shutdown was raised) *and* every in-flight
/// session has drained.
pub(crate) fn serve_event(
    server: &TcpServer,
    max_sessions: Option<usize>,
    on_event: &(dyn Fn(SessionEvent<'_>) + Sync),
) -> AggregateStats {
    let clock = server.clock.clone();
    let start = clock.now();
    let checkpoints_evicted_before = server.resumption.evicted();
    let fold = server.session_fold();
    let obs = server.obs.as_ref();
    let mut agg = AggregateStats::default();

    if let Err(e) = server.listener.set_nonblocking(true) {
        // Without a nonblocking listener there is no reactor; report the
        // condition the same way a broken accept loop would.
        agg.accept_errors += 1;
        if let Some(obs) = obs {
            obs.accept_errors.inc();
        }
        let error = ProtocolError::Transport(TransportError::Io(e.to_string()));
        on_event(SessionEvent::AcceptError { error: &error });
        agg.wall = clock.now().duration_since(start);
        return agg;
    }

    let worker_count = server.worker_count();
    let mut peak_active = 0usize;
    std::thread::scope(|scope| {
        let (result_tx, result_rx) = std::sync::mpsc::channel::<JobResult<'_>>();
        // Per-worker job channels: the vendored channel's receiver is
        // not cloneable, and per-worker queues let the reactor dispatch
        // only to workers it knows are idle — which doubles as the
        // worker-utilization metric.
        let mut workers: Vec<(Sender<Job<'_>>, Option<usize>)> = Vec::with_capacity(worker_count);
        for index in 0..worker_count {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job<'_>>();
            let results = result_tx.clone();
            scope.spawn(move || worker_loop(index, job_rx, results));
            workers.push((job_tx, None));
        }
        drop(result_tx);

        let mut conns: HashMap<usize, Conn<'_>> = HashMap::new();
        let mut queue: VecDeque<QueuedConn> = VecDeque::new();
        let mut accepted = 0usize;
        let mut accept_errors = 0usize;
        let mut accept_retry_at: Option<Instant> = None;
        let mut stop_accepting = false;

        // Finalizes one connection: fires its terminal event, updates
        // every counter, and releases the active gauge. Closures cannot
        // borrow `agg`/`conns` mutably while the loop also does, so this
        // is a macro-free plain fn via parameters.
        fn finalize(
            agg: &mut AggregateStats,
            obs: Option<&crate::obs::ServerObs>,
            on_event: &(dyn Fn(SessionEvent<'_>) + Sync),
            id: usize,
            mut conn: Conn<'_>,
            slow_query_threshold: Option<std::time::Duration>,
        ) {
            if let Some(obs) = obs {
                obs.active.sub(1);
            }
            // Stamp the peer's announced trace context onto the session
            // span before it records (the span drops with `conn`), so
            // every exit path — completed, evicted, failed, drained —
            // carries it.
            let trace = conn.flow.as_ref().and_then(|f| f.trace());
            if let (Some(span), Some(ctx)) = (conn.span.as_mut(), trace) {
                span.set_trace(ctx);
            }
            match (&conn.error, conn.done) {
                (None, true) => {
                    let stats = match &conn.flow {
                        Some(flow) => flow.stats().clone(),
                        None => return, // unreachable: done implies flow home
                    };
                    let wall = conn.started.elapsed();
                    agg.sessions += 1;
                    agg.folded += stats.folded;
                    agg.compute += stats.compute;
                    if let Some(obs) = obs {
                        obs.completed.inc();
                        obs.session_seconds.record_duration(wall);
                        for batch in &stats.per_batch_compute {
                            obs.fold_seconds.record_duration(*batch);
                        }
                        let tracer = match trace {
                            Some(ctx) => obs.tracer().with_context(ctx),
                            None => obs.tracer().clone(),
                        };
                        obs.server_compute.record_duration(stats.compute);
                        tracer.record_phase_total(
                            "server_compute",
                            pps_obs::Phase::ServerCompute,
                            Some(id as u64),
                            stats.compute,
                        );
                        if slow_query_threshold.is_some_and(|t| wall >= t) {
                            obs.slow_queries.inc();
                            tracer.event(
                                "slow_query",
                                Some(id as u64),
                                crate::tcp_server::slow_query_detail(wall, &stats),
                            );
                        }
                    }
                    on_event(SessionEvent::Finished {
                        session: id,
                        stats: &stats,
                    });
                }
                (Some(e), _) if is_eviction(e) => {
                    agg.evicted += 1;
                    if let Some(obs) = obs {
                        obs.evicted.inc();
                    }
                    on_event(SessionEvent::Evicted {
                        session: id,
                        error: e,
                    });
                }
                (Some(e), _) => {
                    agg.failed += 1;
                    if let Some(obs) = obs {
                        obs.failed.inc();
                    }
                    on_event(SessionEvent::Failed {
                        session: id,
                        error: e,
                    });
                }
                (None, false) => {
                    // Shutdown drain of a half-finished session: counted
                    // as a failure (the client never got its product).
                    let e = ProtocolError::Transport(TransportError::Disconnected);
                    agg.failed += 1;
                    if let Some(obs) = obs {
                        obs.failed.inc();
                    }
                    on_event(SessionEvent::Failed {
                        session: id,
                        error: &e,
                    });
                }
            }
        }

        loop {
            let mut progress = false;
            let shutdown = server.shutdown.load(Ordering::SeqCst);
            if shutdown {
                stop_accepting = true;
            }

            // ---- Accept burst -------------------------------------
            if !stop_accepting && accept_retry_at.is_none_or(|t| clock.now() >= t) {
                accept_retry_at = None;
                loop {
                    if max_sessions.is_some_and(|m| accepted >= m) {
                        stop_accepting = true;
                        break;
                    }
                    match server.listener.accept() {
                        Ok((stream, peer)) => {
                            accept_errors = 0;
                            progress = true;
                            if server.shutdown.load(Ordering::SeqCst) {
                                // The shutdown poke itself, or a client
                                // racing it: either way, stop here.
                                drop(stream);
                                stop_accepting = true;
                                break;
                            }
                            let at_cap =
                                server.max_concurrent.is_some_and(|max| conns.len() >= max);
                            if at_cap {
                                use crate::tcp_server::Admission;
                                if server.admission == Admission::Refuse
                                    || queue.len() >= server.queue_capacity
                                {
                                    drop(stream); // clean close (FIN)
                                    agg.refused += 1;
                                    if let Some(obs) = obs {
                                        obs.refused.inc();
                                    }
                                    on_event(SessionEvent::Refused { peer: Some(peer) });
                                    continue;
                                }
                                accepted += 1;
                                agg.queued += 1;
                                if let Some(obs) = obs {
                                    obs.accepted.inc();
                                    obs.queued.add(1);
                                }
                                on_event(SessionEvent::Accepted {
                                    session: accepted,
                                    peer: Some(peer),
                                });
                                let now = clock.now();
                                queue.push_back(QueuedConn {
                                    id: accepted,
                                    stream,
                                    peer: Some(peer),
                                    deadline: SessionDeadline::with_clock(
                                        &server.limits,
                                        clock.clone(),
                                    ),
                                    enqueued: now,
                                    started: now,
                                });
                                continue;
                            }
                            accepted += 1;
                            if let Some(obs) = obs {
                                obs.accepted.inc();
                            }
                            on_event(SessionEvent::Accepted {
                                session: accepted,
                                peer: Some(peer),
                            });
                            let now = clock.now();
                            activate(
                                server,
                                &fold,
                                obs,
                                on_event,
                                &mut agg,
                                &mut conns,
                                accepted,
                                stream,
                                Some(peer),
                                SessionDeadline::with_clock(&server.limits, clock.clone()),
                                now,
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            accept_errors += 1;
                            agg.accept_errors += 1;
                            if let Some(obs) = obs {
                                obs.accept_errors.inc();
                            }
                            let error = ProtocolError::Transport(TransportError::Io(e.to_string()));
                            on_event(SessionEvent::AcceptError { error: &error });
                            if accept_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                                stop_accepting = true;
                            } else {
                                // No sleeping on the reactor: note when
                                // to try again and keep ticking.
                                accept_retry_at = Some(clock.now() + accept_backoff(accept_errors));
                            }
                            break;
                        }
                    }
                }
            }

            // ---- Admission queue maintenance ----------------------
            if shutdown {
                // Same semantics as the threaded engine's queued waiter
                // observing shutdown: turned away, never admitted.
                for q in queue.drain(..) {
                    if let Some(obs) = obs {
                        obs.queued.sub(1);
                        obs.queue_wait_seconds
                            .record_duration(clock.now().duration_since(q.enqueued));
                    }
                    agg.refused += 1;
                    if let Some(obs) = obs {
                        obs.refused.inc();
                    }
                    on_event(SessionEvent::Refused { peer: q.peer });
                }
            } else {
                // Evict queued connections whose session deadline
                // (running since accept) expired while waiting.
                let mut kept = VecDeque::with_capacity(queue.len());
                for q in queue.drain(..) {
                    let expired = q.deadline.expires_at().is_some_and(|at| clock.now() >= at);
                    if expired {
                        progress = true;
                        if let Some(obs) = obs {
                            obs.queued.sub(1);
                            obs.queue_wait_seconds
                                .record_duration(clock.now().duration_since(q.enqueued));
                            obs.evicted.inc();
                        }
                        agg.evicted += 1;
                        let error = ProtocolError::Transport(TransportError::TimedOut);
                        on_event(SessionEvent::Evicted {
                            session: q.id,
                            error: &error,
                        });
                    } else {
                        kept.push_back(q);
                    }
                }
                queue = kept;
                // Promote from the queue while slots are free.
                while server.max_concurrent.is_none_or(|max| conns.len() < max) {
                    let Some(q) = queue.pop_front() else { break };
                    progress = true;
                    if let Some(obs) = obs {
                        obs.queued.sub(1);
                        obs.queue_wait_seconds
                            .record_duration(clock.now().duration_since(q.enqueued));
                    }
                    activate(
                        server, &fold, obs, on_event, &mut agg, &mut conns, q.id, q.stream, q.peer,
                        q.deadline, q.started,
                    );
                }
            }
            peak_active = peak_active.max(conns.len());

            // ---- Poll sockets for frames --------------------------
            let ids: Vec<usize> = conns.keys().copied().collect();
            for id in &ids {
                let conn = conns.get_mut(id).expect("id collected above");
                if conn.done || conn.error.is_some() || conn.read_closed {
                    continue;
                }
                while conn.inbox.len() < INBOX_LIMIT {
                    match conn.wire.poll_recv() {
                        Ok(Some(frame)) => {
                            conn.inbox.push_back(frame);
                            conn.last_activity = clock.now();
                            progress = true;
                        }
                        Ok(None) => break,
                        Err(TransportError::Disconnected) => {
                            conn.read_closed = true;
                            break;
                        }
                        Err(e) => {
                            conn.error = Some(ProtocolError::Transport(e));
                            break;
                        }
                    }
                }
            }

            // ---- Deadline / idle / half-close sweep ---------------
            for id in &ids {
                let conn = conns.get_mut(id).expect("id collected above");
                if conn.done || conn.error.is_some() {
                    continue;
                }
                let now = clock.now();
                if conn.deadline.expires_at().is_some_and(|at| now >= at) {
                    conn.error = Some(ProtocolError::Transport(TransportError::TimedOut));
                    continue;
                }
                let waiting_for_peer = conn.inbox.is_empty() && !conn.in_flight;
                if waiting_for_peer && conn.read_closed {
                    conn.error = Some(ProtocolError::Transport(TransportError::Disconnected));
                    continue;
                }
                if waiting_for_peer
                    && server
                        .limits
                        .read_timeout
                        .is_some_and(|t| now.duration_since(conn.last_activity) >= t)
                {
                    conn.error = Some(ProtocolError::Transport(TransportError::TimedOut));
                }
            }

            // ---- Dispatch ready work to idle workers --------------
            // Per-peer fairness: count workers currently held per peer
            // IP; a peer at its share waits even if workers are idle.
            let fair_share = server.fair_share;
            let mut held_per_peer: HashMap<IpAddr, usize> = HashMap::new();
            if fair_share.is_some() {
                for (_, busy) in &workers {
                    if let Some(conn_id) = busy {
                        if let Some(ip) = conns.get(conn_id).and_then(|c| c.peer).map(|p| p.ip()) {
                            *held_per_peer.entry(ip).or_insert(0) += 1;
                        }
                    }
                }
            }
            for id in &ids {
                let Some(idle) = workers.iter().position(|(_, busy)| busy.is_none()) else {
                    break;
                };
                let conn = conns.get_mut(id).expect("id collected above");
                if conn.in_flight
                    || conn.done
                    || conn.error.is_some()
                    || conn.inbox.is_empty()
                    || conn.flow.is_none()
                {
                    continue;
                }
                if let (Some(share), Some(peer)) = (fair_share, conn.peer) {
                    let held = held_per_peer.entry(peer.ip()).or_insert(0);
                    if *held >= share {
                        continue;
                    }
                    *held += 1;
                }
                let flow = conn.flow.take().expect("checked above");
                let frames: Vec<Frame> = conn.inbox.drain(..).collect();
                conn.in_flight = true;
                conn.last_activity = clock.now();
                progress = true;
                let send = workers[idle].0.send(Job {
                    conn: *id,
                    flow,
                    frames,
                });
                if send.is_ok() {
                    workers[idle].1 = Some(*id);
                } else {
                    // Worker died (its panic was contained, but the
                    // channel is gone); treat the session as panicked.
                    conn.in_flight = false;
                    conn.error = Some(ProtocolError::Transport(TransportError::Io(
                        "worker channel closed".into(),
                    )));
                }
            }
            if let Some(obs) = obs {
                let busy = workers.iter().filter(|(_, b)| b.is_some()).count();
                obs.workers_busy.set(busy as i64);
            }

            // ---- Collect worker results ---------------------------
            loop {
                let result = match result_rx.try_recv() {
                    Ok(r) => r,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break,
                };
                progress = true;
                workers[result.worker].1 = None;
                let Some(conn) = conns.get_mut(&result.conn) else {
                    continue; // unreachable: in-flight conns stay in the map
                };
                conn.in_flight = false;
                if result.resumed_now {
                    agg.resumed += 1;
                    if let Some(obs) = obs {
                        obs.resumed.inc();
                    }
                    on_event(SessionEvent::Resumed {
                        session: result.conn,
                    });
                }
                match result.flow {
                    None => {
                        // A protocol step panicked; the flow is gone.
                        agg.panicked += 1;
                        if let Some(obs) = obs {
                            obs.panicked.inc();
                            obs.active.sub(1);
                        }
                        on_event(SessionEvent::Panicked {
                            session: result.conn,
                        });
                        conns.remove(&result.conn);
                        continue;
                    }
                    Some(flow) => {
                        conn.done = flow.is_done();
                        conn.flow = Some(flow);
                    }
                }
                for reply in &result.replies {
                    conn.wire.queue(reply);
                }
                if let Err(e) = result.outcome {
                    conn.error = Some(e);
                }
            }

            // ---- Flush buffered writes, finalize finished conns ---
            let ids: Vec<usize> = conns.keys().copied().collect();
            for id in ids {
                let conn = conns.get_mut(&id).expect("id collected above");
                if conn.in_flight {
                    continue;
                }
                if conn.wire.has_pending_write() && conn.error.is_none() {
                    match conn.wire.flush() {
                        Ok(true) => progress = true,
                        Ok(false) => {} // backpressure; retry next tick
                        Err(e) => conn.error = Some(ProtocolError::Transport(e)),
                    }
                }
                let complete = conn.done && !conn.wire.has_pending_write();
                if complete || conn.error.is_some() {
                    progress = true;
                    let conn = conns.remove(&id).expect("present above");
                    finalize(
                        &mut agg,
                        obs,
                        on_event,
                        id,
                        conn,
                        server.slow_query_threshold,
                    );
                }
            }

            // ---- Termination / idle sleep -------------------------
            if stop_accepting && conns.is_empty() && queue.is_empty() {
                break;
            }
            if !progress {
                // Under a virtual clock this advances simulated time and
                // returns at once; yield so worker threads still run.
                clock.sleep(IDLE_TICK);
                if clock.is_virtual() {
                    std::thread::yield_now();
                }
            }
        }

        // Shutdown drain complete: drop the job channels so the workers'
        // recv() ends and the scope can join them.
        drop(workers);
        if let Some(obs) = obs {
            obs.workers_busy.set(0);
        }
    });

    // Leave the listener as we found it for any later threaded serve.
    let _ = server.listener.set_nonblocking(false);

    agg.wall = clock.now().duration_since(start);
    agg.peak_active = peak_active;
    agg.checkpoints_evicted = server.resumption.evicted() - checkpoints_evicted_before;
    if let Some(obs) = obs {
        obs.checkpoints_evicted.add(agg.checkpoints_evicted);
    }
    agg
}

/// Admits one connection: runs the chaos hook (inside a panic
/// boundary), wraps the socket in a [`NonBlockingWire`], builds the
/// session flow, and installs the connection in the reactor's map. On
/// hook panic or socket failure the connection is finalized immediately
/// with the matching event.
#[allow(clippy::too_many_arguments)]
fn activate<'a>(
    server: &'a TcpServer,
    fold: &Fold,
    obs: Option<&crate::obs::ServerObs>,
    on_event: &(dyn Fn(SessionEvent<'_>) + Sync),
    agg: &mut AggregateStats,
    conns: &mut HashMap<usize, Conn<'a>>,
    id: usize,
    stream: TcpStream,
    peer: Option<SocketAddr>,
    deadline: SessionDeadline,
    started: Instant,
) {
    if let Some(obs) = obs {
        obs.active.add(1);
    }
    let span = obs.map(|o| o.tracer().span("session").session(id as u64).start());
    if let Some(hook) = &server.fault_hook {
        let hooked = std::panic::catch_unwind(AssertUnwindSafe(|| hook(id)));
        if hooked.is_err() {
            agg.panicked += 1;
            if let Some(obs) = obs {
                obs.panicked.inc();
                obs.active.sub(1);
            }
            on_event(SessionEvent::Panicked { session: id });
            drop(span); // records the (aborted) session span
            return;
        }
    }
    let mut wire = match NonBlockingWire::new(stream) {
        Ok(wire) => wire,
        Err(e) => {
            agg.failed += 1;
            if let Some(obs) = obs {
                obs.failed.inc();
                obs.active.sub(1);
            }
            let error = ProtocolError::Transport(e);
            on_event(SessionEvent::Failed {
                session: id,
                error: &error,
            });
            return;
        }
    };
    if let Some(obs) = obs {
        wire.set_metrics(obs.wire.clone());
    }
    let flow = SessionFlow::new(
        ServerSession::folding(&server.db, fold.clone()),
        &server.resumption,
        server.require_shard,
    );
    let now = server.clock.now();
    conns.insert(
        id,
        Conn {
            peer,
            wire,
            inbox: VecDeque::new(),
            flow: Some(flow),
            in_flight: false,
            deadline,
            started,
            last_activity: now,
            read_closed: false,
            done: false,
            error: None,
            span,
        },
    );
}
