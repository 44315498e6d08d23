//! `serve-zipf`: the online path of Fig. 9. A serving node warm starts
//! from the snapshot of a 4-shard deployment, then one caller thread keeps
//! 16 requests in flight (closed loop) through a `ServingRuntime` with one
//! worker draining batches of 8. Queries are Zipf-skewed, so batches share
//! keys and the cross-request dedup engages. Every 500 ms of serving the node warm restarts from the
//! snapshot again (`restart_ms`), then the handle hot-swaps to the
//! generation that restart loaded — the zero-downtime update of
//! Section V-C. `update_ms` is the time from the swap until
//! `UPDATE_READS` direct handle reads on the new generation have been
//! answered; the loop is drained then, so neither the runtime's queue nor
//! its worker is part of it. Training and deltas are not used.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amcad_retrieval::{
    EngineHandle, Request, Retrieve, RuntimeConfig, ServingRuntime, ShardedDeltaBuilder, Ticket,
};

use crate::corpus::{Corpus, RequestStream};
use crate::probe::{
    check_response, check_same_answers, deploy, file_len, layer_reads, live_ads, micros,
    set_span_median,
};
use crate::stats::{median, percentile, window_median_rate, windowed_quantile};
use crate::trace::{timer_overhead_ns, Tracer};
use crate::{alternate, overhead_share, peak_rss_mb, Outcome, Run};

/// Independent set-ups per run (one before the measured loop, the rest
/// after it, so they sample the host at different times); `setup_s` is
/// their median.
const SETUPS: usize = 3;
const ZIPF_EXPONENT: f64 = 1.1;
/// Outstanding requests: two full batches of the runtime's `BATCH`.
const IN_FLIGHT: usize = 2 * BATCH;
const BATCH: usize = 8;
/// Direct reads that end an update. One read alone (about 0.15 ms) moved
/// its median by a third between runs; a block of 8 is steadier.
const UPDATE_READS: usize = 8;
const UPDATE_CLICKS: usize = 2;
const RESTART_EVERY: Duration = Duration::from_millis(500);
const RATE_WINDOW_S: f64 = 0.5;
/// Requests per second no host reaches; sizes the sample buffers.
const MAX_RATE: f64 = 200_000.0;
/// Longest the caller spins for one completion before it blocks instead.
const SPIN_LIMIT: Duration = Duration::from_secs(1);
/// `p99_us` is the median of the p99s of 1 s windows (about 6,000
/// requests each), so a burst of host noise moves one window, not the run.
const P99_WINDOW_S: f64 = 1.0;
/// Unmeasured serving before the measured loop, so caches and the
/// runtime's worker are warm.
const WARMUP: Duration = Duration::from_secs(1);
const PROBE_REQUESTS: usize = 64;
/// Probe requests each warm restart must answer like the live handle.
const RESTART_PROBE: usize = 16;
const LAYER_REQUESTS: usize = 2_000;

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    latencies_us: Vec<f64>,
    /// Completion times in seconds of serving time (restart pauses
    /// excluded) since the phase started.
    completions: Vec<f64>,
    updates_ms: Vec<f64>,
    restarts_ms: Vec<f64>,
    serving_s: f64,
}

/// The serving node the closed loop drives.
struct Node<'a> {
    runtime: &'a ServingRuntime,
    serving: &'a EngineHandle,
    snapshot: &'a std::path::Path,
    live: &'a [bool],
    probe: &'a [Request],
    /// The generation the last restart loaded, published by the next
    /// update.
    loaded: Option<Arc<dyn Retrieve>>,
    /// The generation the last update published; holding it here frees the
    /// generation it replaced outside the timed swap.
    published: Option<Arc<dyn Retrieve>>,
    stream: RequestStream,
    /// Requests of the direct reads after each swap. They all carry
    /// `UPDATE_CLICKS` pre-clicks: with 0–3, the median read sat on the
    /// boundary between the 1- and 2-click costs and jumped between them.
    update_stream: RequestStream,
}

impl Node<'_> {
    /// Warm restart from the snapshot: load, answer a first request, check
    /// the probe set against the live handle. The next update publishes the
    /// loaded generation. Returns the load-to-first-response time in ms.
    fn restart(&mut self, tracer: &mut Tracer, outcome: &mut Outcome) -> Result<f64, String> {
        let first = &self.probe[0];
        let t = Instant::now();
        let (restarted, builder) = tracer
            .span("retrieval.store.load", |_| {
                EngineHandle::load(self.snapshot)
            })
            .map_err(|e| format!("load: {e}"))?;
        let result = tracer.span("restart.first_read", |_| restarted.retrieve(first));
        let ms = micros(t, Instant::now()) / 1e3;
        outcome.attempted += 1;
        if !check_response(outcome, first, &result, self.live) {
            outcome.failed += 1;
        }
        check_same_answers(
            outcome,
            "warm restart vs live",
            &self.probe[..RESTART_PROBE],
            self.serving,
            &restarted,
        );
        self.loaded = Some(Arc::new(builder.engine().map_err(|e| e.to_string())?));
        Ok(ms)
    }

    /// Hot swap to the generation the last restart loaded, then
    /// `UPDATE_READS` direct reads on the handle. Returns swap to last
    /// response in ms. Every swap installs a generation not served before:
    /// alternating between two loaded generations made every other swap a
    /// no-op, and the median jumped between the two kinds.
    fn update(&mut self, tracer: &mut Tracer, outcome: &mut Outcome) -> Result<f64, String> {
        let next = self
            .loaded
            .take()
            .ok_or("update without a loaded generation")?;
        let requests = self.update_stream.take(UPDATE_READS);
        tracer.begin_op();
        let (ms, results) = tracer.span("update", |tracer| {
            let at = Instant::now();
            tracer.span("retrieval.snapshot.publish", |_| {
                self.serving.publish_arc(Arc::clone(&next))
            });
            let results: Vec<_> = requests
                .iter()
                .map(|request| {
                    tracer.span("retrieval.snapshot.first_read_after_publish", |_| {
                        self.serving.retrieve(request)
                    })
                })
                .collect();
            (micros(at, Instant::now()) / 1e3, results)
        });
        self.published = Some(next);
        for (request, result) in requests.iter().zip(&results) {
            outcome.attempted += 1;
            if !check_response(outcome, request, result, self.live) {
                outcome.failed += 1;
            }
        }
        Ok(ms)
    }
}

/// One set-up: corpus, 4-shard deployment, snapshot. Returns the parts
/// and the seconds it took.
fn set_up(
    run: &Run,
    snapshot: &std::path::Path,
    tracer: &mut Tracer,
) -> Result<(Corpus, ShardedDeltaBuilder, EngineHandle, f64), String> {
    crate::reference::sample();
    let t = Instant::now();
    let (corpus, builder, handle) = deploy(run.seed, tracer)?;
    tracer
        .span("retrieval.store.save", |_| {
            handle.save_snapshot(&builder, snapshot)
        })
        .map_err(|e| format!("save: {e}"))?;
    Ok((corpus, builder, handle, t.elapsed().as_secs_f64()))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(run.trace);
    let snapshot = run.snapshot_path("serve.snap");

    let (corpus, builder, handle, first_setup) = set_up(run, &snapshot, &mut tracer)?;
    let mut setups = vec![first_setup];
    outcome.sizes = vec![
        ("queries", corpus.size.queries),
        ("items", corpus.size.items),
        ("ads", corpus.size.ads),
        ("shards", crate::probe::SHARDS),
        ("in_flight", IN_FLIGHT),
    ];
    outcome.set("retrieval.store.snapshot_bytes", file_len(&snapshot));
    let live = live_ads(&corpus.inputs);
    let probe = RequestStream::uniform(&corpus, run.seed ^ 1).take(PROBE_REQUESTS);
    let serving = Arc::new(handle);
    let runtime = ServingRuntime::new(
        Arc::clone(&serving) as Arc<dyn Retrieve>,
        RuntimeConfig {
            workers: 1,
            queue_depth: 64,
            deadline: Duration::from_secs(10),
            batch_size: BATCH,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut node = Node {
        runtime: &runtime,
        serving: &serving,
        snapshot: &snapshot,
        live: &live,
        probe: &probe,
        loaded: None,
        published: None,
        stream: RequestStream::zipf(&corpus, ZIPF_EXPONENT, run.seed),
        update_stream: RequestStream::uniform_with_clicks(&corpus, run.seed ^ 3, UPDATE_CLICKS),
    };
    tracer.set_enabled(false);
    closed_loop(&mut node, WARMUP, &mut tracer, &mut outcome)?;

    if run.trace {
        let (plain, traced) = alternate(&mut tracer, run.duration(), |tracer, duration| {
            closed_loop(&mut node, duration, tracer, &mut outcome)
        })?;
        let latencies = |phases: &[Phase]| -> Vec<f64> {
            phases
                .iter()
                .flat_map(|p| p.latencies_us.iter().copied())
                .collect()
        };
        let (plain, traced) = (latencies(&plain), latencies(&traced));
        outcome.set("trace.overhead_share", overhead_share(&plain, &traced));
        let runtime_p50 = median(&plain).unwrap_or(f64::NAN);
        let stats = runtime.stats();
        outcome.set(
            "retrieval.runtime.shed",
            (stats.shed_queue_full + stats.shed_deadline) as f64,
        );
        let sharded = builder.engine().map_err(|e| e.to_string())?;
        let requests =
            RequestStream::zipf(&corpus, ZIPF_EXPONENT, run.seed ^ 2).take(LAYER_REQUESTS);
        layer_reads(
            &mut tracer,
            &mut outcome,
            &corpus.inputs,
            &sharded,
            &*serving,
            &requests,
        )?;
        let direct_p50 = outcome.metrics["retrieval.snapshot.retrieve_us"];
        outcome.set("retrieval.runtime.overhead_us", runtime_p50 - direct_p50);
        for (span, metric, scale) in [
            (
                "retrieval.runtime.submit",
                "retrieval.runtime.submit_us",
                1e-3,
            ),
            ("retrieval.runtime.wait", "retrieval.runtime.wait_us", 1e-3),
            (
                "retrieval.snapshot.publish",
                "retrieval.snapshot.publish_us",
                1e-3,
            ),
            (
                "retrieval.snapshot.first_read_after_publish",
                "retrieval.snapshot.first_read_after_publish_us",
                1e-3,
            ),
            ("retrieval.index_build", "retrieval.index_build_ms", 1e-6),
            ("retrieval.store.save", "retrieval.store.save_ms", 1e-6),
            ("retrieval.store.load", "retrieval.store.load_ms", 1e-6),
        ] {
            set_span_median(&mut outcome, &tracer, span, metric, scale);
        }
        outcome.set("trace.uncovered_share", tracer.uncovered_share("request"));
        outcome.set("harness.timer_overhead_ns", timer_overhead_ns());
    } else {
        let phase = closed_loop(&mut node, run.duration(), &mut tracer, &mut outcome)?;
        let rss = peak_rss_mb();
        for _ in 1..SETUPS {
            setups.push(set_up(run, &run.snapshot_path("serve-again.snap"), &mut tracer)?.3);
        }
        let mut latencies = phase.latencies_us.clone();
        outcome.set("setup_s", median(&setups).unwrap_or(f64::NAN));
        outcome.set("peak_rss_mb", rss);
        outcome.set(
            "p50_us",
            percentile(&mut latencies, 0.5).unwrap_or(f64::NAN),
        );
        outcome.set(
            "p99_us",
            windowed_quantile(
                &phase.completions,
                &phase.latencies_us,
                phase.serving_s,
                P99_WINDOW_S,
                0.99,
            )
            .unwrap_or(f64::NAN),
        );
        outcome.set(
            "throughput_qps",
            window_median_rate(&phase.completions, 0.0, phase.serving_s, RATE_WINDOW_S)
                .unwrap_or(f64::NAN),
        );
        outcome.set("update_ms", median(&phase.updates_ms).unwrap_or(f64::NAN));
        outcome.set("restart_ms", median(&phase.restarts_ms).unwrap_or(f64::NAN));
    }

    // the runtime answers exactly what the handle answers directly
    check_same_answers(
        &mut outcome,
        "runtime vs handle",
        &probe,
        &*serving,
        &RuntimeProbe(&runtime),
    );
    if run.trace {
        outcome.tracer = Some(tracer);
    }
    Ok(outcome)
}

/// One closed-loop phase of `duration`. `IN_FLIGHT` requests stay
/// outstanding: whenever the oldest completes it is checked and replaced,
/// so the worker always finds a full batch queued and never parks, and the
/// caller spins on the runtime's completion counter instead of sleeping.
/// Neither thread then waits on a wake-up, whose latency on a busy shared
/// host swung the p99 of a 2-in-flight loop from 0.25 to 1.9 ms between
/// runs. One completion is one traced operation. Before each scheduled
/// restart the loop drains, and restart time is left out of the serving
/// clock that throughput is measured on.
fn closed_loop(
    node: &mut Node<'_>,
    duration: Duration,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Phase, String> {
    // room for every sample up front: a doubling `Vec` would copy into
    // fresh pages mid-run and make the peak RSS depend on where the last
    // doubling fell; reserved but unwritten capacity is not resident
    let room = (duration.as_secs_f64() * MAX_RATE) as usize;
    let mut phase = Phase {
        latencies_us: Vec::with_capacity(room),
        completions: Vec::with_capacity(room),
        ..Phase::default()
    };
    let start = Instant::now();
    let end = start + duration;
    let mut paused = Duration::ZERO;
    let mut next_restart = start + RESTART_EVERY;
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
    // the runtime serves in admission order: the k-th request submitted
    // in this phase is done once `completed` reaches `base + k + 1`
    let base = resolved(node.runtime);
    let mut observed = 0u64;
    loop {
        let now = Instant::now();
        let restart_due = now >= next_restart;
        if now < end && !restart_due {
            while inflight.len() < IN_FLIGHT {
                let request = node.stream.next_request();
                let submitted = Instant::now();
                let ticket = tracer
                    .span("retrieval.runtime.submit", |_| {
                        node.runtime.submit(request.clone())
                    })
                    .map_err(|e| format!("submit refused: {e}"))?;
                inflight.push_back(InFlight {
                    request,
                    ticket,
                    submitted,
                });
            }
        }
        let Some(oldest) = inflight.pop_front() else {
            if now >= end {
                break;
            }
            // drained for the restart and the hot swap after it; the host
            // is sampled while the program is idle
            let t = Instant::now();
            phase.restarts_ms.push(node.restart(tracer, outcome)?);
            phase.updates_ms.push(node.update(tracer, outcome)?);
            crate::reference::sample();
            paused += t.elapsed();
            next_restart = Instant::now() + RESTART_EVERY;
            continue;
        };
        tracer.begin_op();
        tracer.span("request", |tracer| {
            tracer.span("retrieval.runtime.wait", |_| {
                let spin_from = Instant::now();
                while resolved(node.runtime) <= base + observed && spin_from.elapsed() < SPIN_LIMIT
                {
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                }
            });
            let result = oldest.ticket.wait();
            let done = Instant::now();
            observed += 1;
            phase.latencies_us.push(micros(oldest.submitted, done));
            phase
                .completions
                .push((done - start - paused).as_secs_f64());
            outcome.attempted += 1;
            if !check_response(outcome, &oldest.request, &result, node.live) {
                outcome.failed += 1;
            }
        });
    }
    phase.serving_s = (start.elapsed() - paused).as_secs_f64();
    Ok(phase)
}

/// Requests the runtime has resolved: served, or shed at dequeue.
fn resolved(runtime: &ServingRuntime) -> u64 {
    let stats = runtime.stats();
    stats.completed + stats.shed_deadline
}

/// One outstanding request of the closed loop.
struct InFlight {
    request: Request,
    ticket: Ticket,
    submitted: Instant,
}

/// The runtime seen as a [`Retrieve`], for comparing its answers.
struct RuntimeProbe<'a>(&'a ServingRuntime);

impl Retrieve for RuntimeProbe<'_> {
    fn retrieve(
        &self,
        request: &Request,
    ) -> Result<amcad_retrieval::RetrievalResponse, amcad_retrieval::RetrievalError> {
        self.0.retrieve_blocking(request)
    }
}
