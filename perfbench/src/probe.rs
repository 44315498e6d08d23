//! Pieces the workloads share: the serving topology and deployment,
//! output checks, and the traced run's direct per-layer read probes.

use std::time::Instant;

use amcad_mnn::IndexBackend;
use amcad_retrieval::{
    EngineHandle, IndexBuildInputs, Request, RetrievalConfig, RetrievalEngine, RetrievalError,
    RetrievalResponse, Retrieve, ShardedDeltaBuilder, ShardedEngine, ShardedEngineBuilder,
};

use crate::corpus::{Corpus, CorpusSize};
use crate::stats::median;
use crate::trace::{count_allocations, Tracer};
use crate::Outcome;

/// Shards of every deployment the benchmark builds.
pub const SHARDS: usize = 4;

/// The deployment topology: 4 exact-backend shards built 2 at a time,
/// one thread per shard build, inline request fan-out, one replica.
pub fn topology() -> ShardedEngineBuilder {
    ShardedEngine::builder()
        .shards(SHARDS)
        .replicas(1)
        .build_threads(2)
        .threads(1)
        .fanout_threads(1)
        .backend(IndexBackend::Exact)
        .top_k(20)
        .retrieval(RetrievalConfig::default())
}

/// Generate the serving corpus from `seed` and build its deployment: a
/// delta builder over [`topology`] and a handle serving its engine.
pub fn deploy(
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Corpus, ShardedDeltaBuilder, EngineHandle), String> {
    let corpus = Corpus::generate(CorpusSize::SERVING, seed);
    let builder = tracer
        .span("retrieval.index_build", |_| {
            ShardedDeltaBuilder::new(&corpus.inputs, topology())
        })
        .map_err(|e| format!("build: {e}"))?;
    let handle = EngineHandle::new(builder.engine().map_err(|e| e.to_string())?);
    Ok((corpus, builder, handle))
}

/// Check one served response: `Ok`, at most `final_top_n` ads, sorted by
/// score (best first), every ad live in the corpus. `live[id]` marks the
/// live ad ids. Returns whether it passed.
pub fn check_response(
    outcome: &mut Outcome,
    request: &Request,
    result: &Result<RetrievalResponse, RetrievalError>,
    live: &[bool],
) -> bool {
    let top_n = RetrievalConfig::default().final_top_n;
    let problem = match result {
        Err(e) => Some(format!("request {request:?} failed: {e}")),
        Ok(r) if r.ads.len() > top_n => Some(format!("{} ads > top-n {top_n}", r.ads.len())),
        Ok(r) if r.ads.windows(2).any(|w| w[0].score < w[1].score) => {
            Some(format!("ads of {request:?} not sorted by score"))
        }
        Ok(r) => r
            .ads
            .iter()
            .find(|a| !live.get(a.ad as usize).copied().unwrap_or(false))
            .map(|a| format!("ad {} of {request:?} is not in the corpus", a.ad)),
    };
    let ok = problem.is_none();
    outcome.check(ok, || problem.unwrap_or_default());
    ok
}

/// `live[id]` is true for every ad id in `inputs`.
pub fn live_ads(inputs: &IndexBuildInputs) -> Vec<bool> {
    let max = inputs.ads_qa.ids().iter().copied().max().unwrap_or(0) as usize;
    let mut live = vec![false; max + 1];
    for &id in inputs.ads_qa.ids() {
        live[id as usize] = true;
    }
    live
}

/// Compare two engines' logical answers (rankings and topology-free
/// stats) on `probe`; record a violation for the first difference.
pub fn check_same_answers(
    outcome: &mut Outcome,
    what: &str,
    probe: &[Request],
    expected: &dyn Retrieve,
    actual: &dyn Retrieve,
) {
    let logical = |r: Result<RetrievalResponse, RetrievalError>| {
        r.map(RetrievalResponse::logical)
            .map_err(RetrievalError::logical)
    };
    let differs = probe
        .iter()
        .find(|r| logical(expected.retrieve(r)) != logical(actual.retrieve(r)));
    outcome.check(differs.is_none(), || {
        format!("{what}: answers differ on {differs:?}")
    });
}

/// Microseconds between two instants.
pub fn micros(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// The traced run's direct reads, each inside a span: the sharded engine
/// alone, its batch path (pairs), the serving handle, and an unsharded
/// engine over the same inputs — plus allocation counts per request on
/// the sharded and unsharded engines. Runs on the calling thread with no
/// other thread serving, so the process-wide allocation counts are the
/// request's own.
pub fn layer_reads(
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    inputs: &IndexBuildInputs,
    sharded: &ShardedEngine,
    handle: &dyn Retrieve,
    requests: &[Request],
) -> Result<(), String> {
    let unsharded = tracer.span("retrieval.engine.build", |_| {
        RetrievalEngine::builder()
            .index(*sharded.index_config())
            .retrieval(*sharded.config())
            .threads(2)
            .build(inputs)
            .map_err(|e| format!("unsharded build: {e}"))
    })?;
    check_same_answers(
        outcome,
        "unsharded vs sharded",
        requests,
        &unsharded,
        sharded,
    );
    let times = |name: &'static str, engine: &dyn Retrieve, tracer: &mut Tracer| {
        let mut us = Vec::with_capacity(requests.len());
        for r in requests {
            let t = Instant::now();
            let _ = std::hint::black_box(tracer.span(name, |_| engine.retrieve(r)));
            us.push(micros(t, Instant::now()));
        }
        median(&us).unwrap_or(f64::NAN)
    };
    let shard_us = times("retrieval.shard.retrieve", sharded, tracer);
    let handle_us = times("retrieval.snapshot.retrieve", handle, tracer);
    let engine_us = times("retrieval.engine.retrieve", &unsharded, tracer);
    let mut batch_us = Vec::new();
    for pair in requests.chunks_exact(2) {
        let t = Instant::now();
        let _ = std::hint::black_box(tracer.span("retrieval.shard.retrieve_batch", |_| {
            sharded.retrieve_batch(pair)
        }));
        batch_us.push(micros(t, Instant::now()) / 2.0);
    }
    outcome.set("retrieval.shard.retrieve_us", shard_us);
    outcome.set("retrieval.snapshot.retrieve_us", handle_us);
    outcome.set("retrieval.engine.retrieve_us", engine_us);
    outcome.set(
        "retrieval.shard.retrieve_batch_us",
        median(&batch_us).unwrap_or(f64::NAN),
    );

    let (mut allocs, mut bytes, mut unsharded_allocs) = (0u64, 0u64, 0u64);
    let (mut postings, mut keys) = (0usize, 0usize);
    for r in requests {
        let (result, a, b) = count_allocations(|| sharded.retrieve(r));
        allocs += a;
        bytes += b;
        if let Ok(response) = result {
            postings += response.stats.postings_scanned;
            keys += response.stats.keys_expanded;
        }
        let (_, a, _) = count_allocations(|| unsharded.retrieve(r));
        unsharded_allocs += a;
    }
    let n = requests.len().max(1) as f64;
    outcome.set("alloc.per_request", allocs as f64 / n);
    outcome.set("alloc.bytes_per_request", bytes as f64 / n);
    outcome.set("alloc.per_request_unsharded", unsharded_allocs as f64 / n);
    outcome.set("retrieval.engine.postings_per_request", postings as f64 / n);
    outcome.set("retrieval.engine.keys_per_request", keys as f64 / n);
    Ok(())
}

/// Median of the durations (ns) of spans named `span`, in `scale` units
/// per ns (1e-3 for µs, 1e-6 for ms), stored as `metric`.
pub fn set_span_median(
    outcome: &mut Outcome,
    tracer: &Tracer,
    span: &str,
    metric: &'static str,
    scale: f64,
) {
    if let Some(m) = median(&tracer.durations(span)) {
        outcome.set(metric, m * scale);
    }
}

/// Size of the file at `path` in bytes (0 when unreadable).
pub fn file_len(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
