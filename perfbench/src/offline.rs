//! `offline-refresh`: the daily refresh (Table IX's path). One refresh
//! runs one day's tiny-scale world through the whole pipeline — logs and
//! graph, training for a fixed number of steps, export and offline
//! evaluation, index inputs, a 4-shard delta-builder build, snapshot save
//! and warm load — and the loaded engine then serves the day's evaluation
//! sessions. Training is most of the time; the serving layers do little.
//! Each refresh is a new day: its world seed is drawn from the workload
//! seed and the day number, so a run's medians average over many small
//! worlds instead of resting on one.

use std::time::{Duration, Instant};

use amcad_core::{build_index_inputs, evaluate_offline, EvalConfig};
use amcad_datagen::{Dataset, WorldConfig};
use amcad_graph::{MetaPathSampler, SamplerConfig};
use amcad_model::{AmcadConfig, AmcadModel, Trainer, TrainerConfig};
use amcad_retrieval::{EngineHandle, IndexBuildInputs, Request, Retrieve, ShardedDeltaBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{
    check_response, check_same_answers, file_len, layer_reads, live_ads, micros, set_span_median,
    topology,
};
use crate::stats::{median, percentile};
use crate::trace::{count_allocations, timer_overhead_ns, Tracer};
use crate::{alternate, overhead_share, peak_rss_mb, Outcome, Run};

/// Lowest acceptable next-day AUC (×100) of a refresh; 50 is chance.
const AUC_FLOOR: f64 = 60.0;
/// Requests of the evaluation window compared between the warm-loaded
/// and the cold-built engine.
const PROBE_REQUESTS: usize = 64;
/// Warm restarts from each refresh's snapshot (the first ends the
/// refresh); the tiny snapshot loads in about a millisecond, so one
/// restart alone is too short to time steadily.
const RESTARTS_PER_REFRESH: usize = 16;
/// Cold refreshes of day 0 per run (one before the measured loop, the
/// rest after it, so they sample the host at different times);
/// `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes over the day's evaluation sessions (3,600 reads), so each
/// refresh's read p99 rests on 36 reads beyond it.
const READ_PASSES: usize = 4;

/// One day's refresh configuration: the tiny-scale world and training
/// preset, seeded for that day.
struct Config {
    world: WorldConfig,
    model: AmcadConfig,
    trainer: TrainerConfig,
    eval: EvalConfig,
}

impl Config {
    fn day(seed: u64, day: u64) -> Config {
        let seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(day.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut world = WorldConfig::tiny(seed);
        world.num_categories = 6;
        world.queries_per_category = 16;
        world.items_per_category = 24;
        world.ads_per_category = 8;
        world.train_sessions = 2_500;
        world.eval_sessions = 900;
        Config {
            world,
            model: AmcadConfig::amcad(6, seed),
            trainer: TrainerConfig {
                batch_size: 16,
                steps: 120,
                seed,
                lru_max_age: 0,
            },
            eval: EvalConfig {
                max_queries: 60,
                auc_negatives: 4,
                seed,
            },
        }
    }
}

/// What one refresh measured.
struct Refresh {
    update_ms: f64,
    /// Snapshot load to first response, every restart of the refresh.
    restarts_ms: Vec<f64>,
    read_us: Vec<f64>,
    read_p99_us: f64,
    /// Read rate of each whole pass over the day's evaluation sessions.
    /// Sessions come in order, so 100-read windows held different query
    /// mixes and their rates spread from 17k to 30k/s within one refresh.
    read_rates: Vec<f64>,
    losses: Vec<f64>,
    next_auc: f64,
}

/// What one refresh built; only the latest is kept, so the run's memory
/// does not grow with the number of refreshes that fit in it.
struct Refreshed {
    inputs: IndexBuildInputs,
    requests: Vec<Request>,
    loaded: (EngineHandle, ShardedDeltaBuilder),
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(false);
    let snapshot = run.snapshot_path("refresh.snap");

    // set-up: day 0's refresh, the cold start before any timed one
    let day0 = Config::day(run.seed, 0);
    let cold_start = |tracer: &mut Tracer, outcome: &mut Outcome| {
        crate::reference::sample();
        let t = Instant::now();
        let (_, built) = refresh(&day0, &snapshot, tracer, outcome)?;
        Ok::<_, String>((t.elapsed().as_secs_f64(), built))
    };
    let (first_setup, first) = cold_start(&mut tracer, &mut outcome)?;
    let mut setups = vec![first_setup];
    outcome.sizes = vec![
        ("categories", day0.world.num_categories),
        ("queries", first.inputs.queries_qa.len()),
        ("items", first.inputs.items_ia.len()),
        ("ads", first.inputs.ads_qa.len()),
        ("train_sessions", day0.world.train_sessions),
        ("eval_sessions", day0.world.eval_sessions),
        ("train_steps", day0.trainer.steps),
        ("batch_size", day0.trainer.batch_size),
        ("shards", crate::probe::SHARDS),
    ];
    drop(first);

    let mut day = 0;
    let mut latest = None;
    let mut measure = |tracer: &mut Tracer, outcome: &mut Outcome, duration: Duration| {
        let start = Instant::now();
        let mut done = Vec::new();
        while done.is_empty() || start.elapsed() < duration {
            day += 1;
            let config = Config::day(run.seed, day);
            latest = None;
            // the host is sampled between refreshes, while the program is
            // idle
            crate::reference::sample();
            let (stats, built) = refresh(&config, &snapshot, tracer, outcome)?;
            crate::reference::sample();
            if tracer.enabled() {
                check_training_reproduces(&config, &stats.losses, outcome);
            }
            done.push(stats);
            latest = Some(built);
        }
        Ok::<_, String>(done)
    };
    if run.trace {
        let (plain, traced) = alternate(&mut tracer, run.duration(), |tracer, duration| {
            measure(tracer, &mut outcome, duration)
        })?;
        let updates = |blocks: &[Vec<Refresh>]| -> Vec<f64> {
            blocks.iter().flatten().map(|r| r.update_ms).collect()
        };
        outcome.set(
            "trace.overhead_share",
            overhead_share(&updates(&plain), &updates(&traced)),
        );
        let aucs: Vec<f64> = plain
            .iter()
            .chain(&traced)
            .flatten()
            .map(|r| r.next_auc)
            .collect();
        outcome.set("model.next_auc", median(&aucs).unwrap_or(f64::NAN));
        if let Some(last) = &latest {
            let sharded = last.loaded.1.engine().map_err(|e| e.to_string())?;
            layer_reads(
                &mut tracer,
                &mut outcome,
                &last.inputs,
                &sharded,
                &last.loaded.0,
                &last.requests,
            )?;
        }
        for (span, metric, scale) in [
            ("datagen.generate", "datagen.generate_ms", 1e-6),
            ("graph.sample_batch", "graph.sample_batch_ms", 1e-6),
            ("model.train_step", "model.train_step_ms", 1e-6),
            ("model.export", "model.export_ms", 1e-6),
            ("core.evaluate_offline", "core.evaluate_offline_ms", 1e-6),
            (
                "core.build_index_inputs",
                "core.build_index_inputs_ms",
                1e-6,
            ),
            ("retrieval.index_build", "retrieval.index_build_ms", 1e-6),
            ("retrieval.store.save", "retrieval.store.save_ms", 1e-6),
            ("retrieval.store.load", "retrieval.store.load_ms", 1e-6),
        ] {
            set_span_median(&mut outcome, &tracer, span, metric, scale);
        }
        for (count, metric) in [
            ("allocs_per_train_step", "alloc.per_train_step"),
            ("samples_per_s", "model.samples_per_s"),
        ] {
            if let Some(m) = median(tracer.counts(count)) {
                outcome.set(metric, m);
            }
        }
        outcome.set("retrieval.store.snapshot_bytes", file_len(&snapshot));
        outcome.set("trace.uncovered_share", tracer.uncovered_share("refresh"));
        outcome.set("harness.timer_overhead_ns", timer_overhead_ns());
        outcome.tracer = Some(tracer);
    } else {
        let refreshes = measure(&mut tracer, &mut outcome, run.duration())?;
        let rss = peak_rss_mb();
        drop(latest);
        for _ in 1..SETUPS {
            setups.push(cold_start(&mut tracer, &mut outcome)?.0);
        }
        let collect = |f: fn(&Refresh) -> f64| refreshes.iter().map(f).collect::<Vec<f64>>();
        let mut reads: Vec<f64> = refreshes.iter().flat_map(|r| r.read_us.clone()).collect();
        let rates: Vec<f64> = refreshes
            .iter()
            .flat_map(|r| r.read_rates.clone())
            .collect();
        let restarts: Vec<f64> = refreshes
            .iter()
            .flat_map(|r| r.restarts_ms.clone())
            .collect();
        outcome.set("setup_s", median(&setups).unwrap_or(f64::NAN));
        outcome.set("peak_rss_mb", rss);
        outcome.set("p50_us", percentile(&mut reads, 0.5).unwrap_or(f64::NAN));
        outcome.set(
            "p99_us",
            median(&collect(|r| r.read_p99_us)).unwrap_or(f64::NAN),
        );
        outcome.set("throughput_qps", median(&rates).unwrap_or(f64::NAN));
        outcome.set(
            "update_ms",
            median(&collect(|r| r.update_ms)).unwrap_or(f64::NAN),
        );
        outcome.set("restart_ms", median(&restarts).unwrap_or(f64::NAN));
    }
    Ok(outcome)
}

/// One refresh, one traced operation.
fn refresh(
    config: &Config,
    snapshot: &std::path::Path,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(Refresh, Refreshed), String> {
    tracer.begin_op();
    tracer.span("refresh", |tracer| {
        let start = Instant::now();
        let dataset = tracer.span("datagen.generate", |_| Dataset::generate(&config.world));
        let mut model = AmcadModel::new(config.model.clone(), &dataset.graph);
        let losses = tracer.span("model.train", |tracer| {
            train(config, &mut model, &dataset, tracer)
        });
        let export = tracer.span("model.export", |_| {
            model.export(&dataset.graph, config.trainer.seed)
        });
        let offline = tracer.span("core.evaluate_offline", |_| {
            evaluate_offline(&export, &dataset, &config.eval)
        });
        let inputs = tracer.span("core.build_index_inputs", |_| {
            build_index_inputs(&export, &dataset)
        });
        let builder = tracer
            .span("retrieval.index_build", |_| {
                ShardedDeltaBuilder::new(&inputs, topology())
            })
            .map_err(|e| format!("build: {e}"))?;
        let cold = EngineHandle::new(builder.engine().map_err(|e| e.to_string())?);
        tracer
            .span("retrieval.store.save", |_| {
                cold.save_snapshot(&builder, snapshot)
            })
            .map_err(|e| format!("save: {e}"))?;
        let requests: Vec<Request> = dataset
            .eval_sessions
            .iter()
            .map(|s| Request {
                query: s.query.0,
                preclick_items: dataset.preclick_items(s).iter().map(|n| n.0).collect(),
            })
            .collect();
        let live = live_ads(&inputs);

        let loaded_at = Instant::now();
        let loaded = tracer
            .span("retrieval.store.load", |_| EngineHandle::load(snapshot))
            .map_err(|e| format!("load: {e}"))?;
        let first = tracer.span("restart.first_read", |_| loaded.0.retrieve(&requests[0]));
        let end = Instant::now();
        outcome.attempted += 1;
        if !check_response(outcome, &requests[0], &first, &live) {
            outcome.failed += 1;
        }

        // the refreshed engine serves the day's evaluation sessions
        let mut read_us = Vec::with_capacity(READ_PASSES * requests.len());
        let mut read_rates = Vec::new();
        for _ in 0..READ_PASSES {
            let pass_start = Instant::now();
            for request in &requests {
                let t = Instant::now();
                let result = tracer.span("retrieval.snapshot.retrieve", |_| {
                    loaded.0.retrieve(request)
                });
                read_us.push(micros(t, Instant::now()));
                outcome.attempted += 1;
                if !check_response(outcome, request, &result, &live) {
                    outcome.failed += 1;
                }
            }
            read_rates.push(requests.len() as f64 / pass_start.elapsed().as_secs_f64());
        }
        let read_p99_us = percentile(&mut read_us.clone(), 0.99).unwrap_or(f64::NAN);

        let probe = &requests[..requests.len().min(PROBE_REQUESTS)];
        check_same_answers(
            outcome,
            "warm-loaded vs cold-built",
            probe,
            &cold,
            &loaded.0,
        );
        let mut restarts_ms = vec![micros(loaded_at, end) / 1e3];
        for request in requests.iter().take(RESTARTS_PER_REFRESH - 1) {
            let t = Instant::now();
            let (again, _) = tracer
                .span("retrieval.store.load", |_| EngineHandle::load(snapshot))
                .map_err(|e| format!("load: {e}"))?;
            let result = tracer.span("restart.first_read", |_| again.retrieve(request));
            restarts_ms.push(micros(t, Instant::now()) / 1e3);
            outcome.attempted += 1;
            if !check_response(outcome, request, &result, &live) {
                outcome.failed += 1;
            }
        }
        outcome.check(losses.iter().all(|l| l.is_finite()), || {
            format!("non-finite training loss, world seed {}", config.world.seed)
        });
        outcome.check(offline.next_auc > AUC_FLOOR, || {
            format!(
                "next AUC {} below {AUC_FLOOR}, world seed {}",
                offline.next_auc, config.world.seed
            )
        });
        let stats = Refresh {
            update_ms: micros(start, end) / 1e3,
            restarts_ms,
            read_us,
            read_p99_us,
            read_rates,
            losses,
            next_auc: offline.next_auc,
        };
        Ok((
            stats,
            Refreshed {
                inputs,
                requests,
                loaded,
            },
        ))
    })
}

/// Train for the configured steps. Untraced, through `Trainer::run`;
/// traced, the same sampler and `train_step` loop driven here so each
/// step's sampling and update get their own spans and allocation counts.
fn train(
    config: &Config,
    model: &mut AmcadModel,
    dataset: &Dataset,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let graph = &dataset.graph;
    if !tracer.enabled() {
        return Trainer::new(config.trainer).run(model, graph).losses;
    }
    let sampler = MetaPathSampler::new(
        graph,
        SamplerConfig {
            negatives_per_positive: model.config().negatives_per_positive,
            hard_fraction: model.config().hard_negative_fraction,
            same_category_positives: true,
        },
    );
    let tc = config.trainer;
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let mut losses = Vec::with_capacity(tc.steps);
    let (mut samples, mut busy) = (0usize, 0.0f64);
    for step in 0..tc.steps {
        let batch = tracer.span("graph.sample_batch", |_| {
            sampler.sample_batch(tc.batch_size, &mut rng)
        });
        if batch.is_empty() {
            continue;
        }
        let t = Instant::now();
        let (stats, allocs, _) = tracer.span("model.train_step", |_| {
            count_allocations(|| model.train_step(graph, &batch, tc.seed.wrapping_add(step as u64)))
        });
        busy += t.elapsed().as_secs_f64();
        samples += batch.len();
        tracer.count("allocs_per_train_step", allocs as f64);
        losses.push(stats.loss);
    }
    tracer.count("samples_per_s", samples as f64 / busy);
    losses
}

/// After a traced refresh, outside its timing: train the same day again
/// through `Trainer::run` and require the traced loop's losses bit for
/// bit.
fn check_training_reproduces(config: &Config, traced: &[f64], outcome: &mut Outcome) {
    let dataset = Dataset::generate(&config.world);
    let mut model = AmcadModel::new(config.model.clone(), &dataset.graph);
    let reference = Trainer::new(config.trainer)
        .run(&mut model, &dataset.graph)
        .losses;
    let same = traced.len() == reference.len()
        && traced
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    outcome.check(same, || {
        format!(
            "traced training loop diverged from Trainer::run, world seed {}",
            config.world.seed
        )
    });
}
