//! `churn-uniform`: the serving deployment used for writes beside reads,
//! all on one thread and without the runtime. Each round publishes a
//! delta that retires 0.5% of the ads and adds as many fresh ones, serves
//! a fixed block of uniformly drawn requests on the handle, then saves a
//! snapshot, warm restarts from it and serves a first request. Each
//! publish disturbs the read path's caches, so a read-side gain that
//! costs publishes or restarts, or the reverse, shows here.

use std::time::{Duration, Instant};

use amcad_retrieval::{EngineHandle, Request, Retrieve, ShardedDeltaBuilder, ShardedEngine};

use crate::corpus::{Corpus, RequestStream};
use crate::probe::{
    check_response, check_same_answers, deploy, file_len, layer_reads, live_ads, micros,
    set_span_median, topology,
};
use crate::stats::{median, percentile};
use crate::trace::{count_allocations, timer_overhead_ns, Tracer};
use crate::{alternate, overhead_share, peak_rss_mb, Outcome, Run};

/// Independent set-ups per run (one before the measured rounds, the rest
/// after them, so they sample the host at different times); `setup_s` is
/// their median.
const SETUPS: usize = 3;
/// Share of the ads each delta retires (and replaces).
const CHURN_SHARE: f64 = 0.005;
/// Reads per round; each round's p99 is one window of `p99_us`, which
/// reports the median over rounds.
const READS_PER_ROUND: usize = 1_000;
/// Reads per throughput window: `throughput_qps` is the median rate over
/// these windows, so a host stall moves the few windows it lands in, not
/// the figure.
const RATE_WINDOW_READS: usize = 100;
const PROBE_REQUESTS: usize = 48;
/// Reads per second no host reaches; sizes the sample buffer.
const MAX_RATE: f64 = 200_000.0;
const LAYER_REQUESTS: usize = 2_000;

/// What the rounds of one phase measured.
#[derive(Default)]
struct Phase {
    read_us: Vec<f64>,
    /// p99 of each round's read block.
    round_p99_us: Vec<f64>,
    /// Read rate of each `RATE_WINDOW_READS` window.
    window_rates: Vec<f64>,
    updates_ms: Vec<f64>,
    restarts_ms: Vec<f64>,
}

/// One timed set-up: corpus and 4-shard deployment.
fn set_up(run: &Run, tracer: &mut Tracer) -> Result<Deployment, String> {
    crate::reference::sample();
    let t = Instant::now();
    let (corpus, builder, handle) = deploy(run.seed, tracer)?;
    let setup_s = t.elapsed().as_secs_f64();
    let expected = corpus.inputs.clone();
    Ok(Deployment {
        corpus,
        builder,
        handle,
        expected,
        setup_s,
    })
}

/// The live deployment and the corpus it should serve.
struct Deployment {
    corpus: Corpus,
    builder: ShardedDeltaBuilder,
    handle: EngineHandle,
    /// The post-delta corpus, kept by applying each delta to plain inputs:
    /// the ground truth the final from-scratch build is made from.
    expected: amcad_retrieval::IndexBuildInputs,
    setup_s: f64,
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(run.trace);
    let snapshot = run.snapshot_path("churn.snap");

    let d = set_up(run, &mut tracer)?;
    let mut setups = vec![d.setup_s];
    let churn = ((d.corpus.size.ads as f64 * CHURN_SHARE).round() as usize).max(1);
    outcome.sizes = vec![
        ("queries", d.corpus.size.queries),
        ("items", d.corpus.size.items),
        ("ads", d.corpus.size.ads),
        ("shards", crate::probe::SHARDS),
        ("ads_per_delta", churn),
        ("reads_per_round", READS_PER_ROUND),
    ];
    let mut c = Churn {
        stream: RequestStream::uniform(&d.corpus, run.seed),
        probe: RequestStream::uniform(&d.corpus, run.seed ^ 1).take(PROBE_REQUESTS),
        d,
        churn,
        snapshot: &snapshot,
    };
    let mut measure =
        |tracer: &mut Tracer, outcome: &mut Outcome, duration| c.rounds(duration, tracer, outcome);
    // one unmeasured round warms the caches and the allocator
    tracer.set_enabled(false);
    measure(&mut tracer, &mut outcome, Duration::ZERO)?;

    if run.trace {
        let (plain, traced) = alternate(&mut tracer, run.duration(), |tracer, duration| {
            measure(tracer, &mut outcome, duration)
        })?;
        let reads = |phases: &[Phase]| -> Vec<f64> {
            phases
                .iter()
                .flat_map(|p| p.read_us.iter().copied())
                .collect()
        };
        outcome.set(
            "trace.overhead_share",
            overhead_share(&reads(&plain), &reads(&traced)),
        );
    } else {
        let phase = measure(&mut tracer, &mut outcome, run.duration())?;
        let rss = peak_rss_mb();
        for _ in 1..SETUPS {
            setups.push(set_up(run, &mut tracer)?.setup_s);
        }
        let mut reads = phase.read_us;
        outcome.set("setup_s", median(&setups).unwrap_or(f64::NAN));
        outcome.set("peak_rss_mb", rss);
        outcome.set("p50_us", percentile(&mut reads, 0.5).unwrap_or(f64::NAN));
        outcome.set("p99_us", median(&phase.round_p99_us).unwrap_or(f64::NAN));
        outcome.set(
            "throughput_qps",
            median(&phase.window_rates).unwrap_or(f64::NAN),
        );
        outcome.set("update_ms", median(&phase.updates_ms).unwrap_or(f64::NAN));
        outcome.set("restart_ms", median(&phase.restarts_ms).unwrap_or(f64::NAN));
    }

    // after the last delta the deployment answers like a from-scratch
    // build of the post-delta corpus
    let Churn { d, probe, .. } = c;
    let rebuilt = topology()
        .build(&d.expected)
        .map_err(|e| format!("from-scratch build: {e}"))?;
    check_same_answers(
        &mut outcome,
        "delta vs from-scratch",
        &probe,
        &rebuilt,
        &d.handle,
    );

    if run.trace {
        let sharded: ShardedEngine = d.builder.engine().map_err(|e| e.to_string())?;
        let requests = RequestStream::uniform(&d.corpus, run.seed ^ 2).take(LAYER_REQUESTS);
        layer_reads(
            &mut tracer,
            &mut outcome,
            &d.expected,
            &sharded,
            &d.handle,
            &requests,
        )?;
        for (span, metric, scale) in [
            ("retrieval.delta.apply", "retrieval.delta.apply_ms", 1e-6),
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
        for (count, metric) in [
            ("shards_touched", "retrieval.delta.shards_touched"),
            ("allocs_per_delta", "alloc.per_delta"),
        ] {
            if let Some(m) = median(tracer.counts(count)) {
                outcome.set(metric, m);
            }
        }
        outcome.set("retrieval.store.snapshot_bytes", file_len(&snapshot));
        outcome.set("trace.uncovered_share", tracer.uncovered_share("round"));
        outcome.set("harness.timer_overhead_ns", timer_overhead_ns());
        outcome.tracer = Some(tracer);
    }
    Ok(outcome)
}

/// The churn loop's state: the deployment, its request streams, and the
/// delta size.
struct Churn<'a> {
    d: Deployment,
    stream: RequestStream,
    probe: Vec<Request>,
    /// Ads each delta retires and adds.
    churn: usize,
    snapshot: &'a std::path::Path,
}

impl Churn<'_> {
    /// Churn rounds until `duration` has passed (at least one round).
    fn rounds(
        &mut self,
        duration: Duration,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
    ) -> Result<Phase, String> {
        // room for every read up front, so no doubling reallocation
        // lands in the peak RSS (see serve.rs)
        let mut phase = Phase {
            read_us: Vec::with_capacity((duration.as_secs_f64() * MAX_RATE) as usize),
            ..Phase::default()
        };
        let start = Instant::now();
        while phase.updates_ms.is_empty() || start.elapsed() < duration {
            tracer.begin_op();
            tracer.span("round", |tracer| self.round(tracer, outcome, &mut phase))?;
        }
        Ok(phase)
    }

    fn round(
        &mut self,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let Churn {
            d,
            stream,
            probe,
            churn,
            snapshot,
        } = self;
        let (probe, churn, snapshot) = (probe.as_slice(), *churn, *snapshot);
        // the host is sampled between rounds, while the program is idle
        crate::reference::sample();
        let delta = d.corpus.churn_delta(d.expected.ads_qa.ids(), churn);
        delta.apply_to(&mut d.expected);
        let live = live_ads(&d.expected);
        let first = stream.next_request();

        // 1. publish the delta; the update ends with the first read after it
        let t = Instant::now();
        if tracer.enabled() {
            // the two halves of `publish_delta`, timed apart
            let before = d.builder.engine().map_err(|e| e.to_string())?;
            let (next, allocs, _) = tracer.span("retrieval.delta.apply", |_| {
                count_allocations(|| d.builder.apply(&delta))
            });
            let next = next.map_err(|e| format!("delta: {e}"))?;
            let touched = (0..before.active_shards().min(next.active_shards()))
                .filter(|&s| {
                    !std::sync::Arc::ptr_eq(
                        before.shard(s).engine_shared(),
                        next.shard(s).engine_shared(),
                    )
                })
                .count();
            tracer.count("shards_touched", touched as f64);
            tracer.count("allocs_per_delta", allocs as f64);
            tracer.span("retrieval.snapshot.publish", |_| d.handle.publish(next));
        } else {
            d.handle
                .publish_delta(&mut d.builder, &delta)
                .map_err(|e| format!("delta: {e}"))?;
        }
        let result = tracer.span("retrieval.snapshot.first_read_after_publish", |_| {
            d.handle.retrieve(&first)
        });
        phase.updates_ms.push(micros(t, Instant::now()) / 1e3);
        outcome.attempted += 1;
        if !check_response(outcome, &first, &result, &live) {
            outcome.failed += 1;
        }

        // 2. a block of reads on the handle
        let block = stream.take(READS_PER_ROUND);
        for window in block.chunks(RATE_WINDOW_READS) {
            let window_start = Instant::now();
            for request in window {
                let t = Instant::now();
                let result = tracer.span("retrieval.snapshot.retrieve", |_| {
                    d.handle.retrieve(request)
                });
                phase.read_us.push(micros(t, Instant::now()));
                outcome.attempted += 1;
                if !check_response(outcome, request, &result, &live) {
                    outcome.failed += 1;
                }
            }
            phase
                .window_rates
                .push(window.len() as f64 / window_start.elapsed().as_secs_f64());
        }
        let mut block_us = phase.read_us[phase.read_us.len() - block.len()..].to_vec();
        phase
            .round_p99_us
            .push(percentile(&mut block_us, 0.99).unwrap_or(f64::NAN));

        // 3. save, warm restart, first response; the restart must serve the
        // probe set exactly like the live handle
        tracer
            .span("retrieval.store.save", |_| {
                d.handle.save_snapshot(&d.builder, snapshot)
            })
            .map_err(|e| format!("save: {e}"))?;
        let t = Instant::now();
        let (restarted, _) = tracer
            .span("retrieval.store.load", |_| EngineHandle::load(snapshot))
            .map_err(|e| format!("load: {e}"))?;
        let result = tracer.span("restart.first_read", |_| restarted.retrieve(&probe[0]));
        phase.restarts_ms.push(micros(t, Instant::now()) / 1e3);
        outcome.attempted += 1;
        if !check_response(outcome, &probe[0], &result, &live) {
            outcome.failed += 1;
        }
        check_same_answers(
            outcome,
            "warm restart vs live",
            probe,
            &d.handle,
            &restarted,
        );
        Ok(())
    }
}
