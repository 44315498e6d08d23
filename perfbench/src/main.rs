//! AMCAD benchmark: three workloads over the workspace's public entry
//! points, each run in its own process from one workload seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 25 --trace 0
//! ```
//!
//! * `offline-refresh` — the daily refresh: logs → graph → training →
//!   export and offline evaluation → index inputs → 4-shard build →
//!   snapshot save → warm load, then the refreshed engine serves the
//!   day's evaluation sessions; each refresh is a new day.
//! * `serve-zipf` — the online path: a closed loop keeps 16 requests (two
//!   batches of 8) in flight through `ServingRuntime` over a 4-shard
//!   deployment that warm starts from a snapshot every 500 ms, each
//!   restart followed by a hot swap to the generation it loaded and 8
//!   direct reads; Zipf-skewed queries.
//! * `churn-uniform` — writes beside reads on one thread: each round
//!   publishes a delta, serves uniformly drawn requests on the handle,
//!   saves a snapshot and warm restarts from it.
//!
//! Every workload reports every end-to-end metric (`--trace 0`), because
//! the benchmark's result format has one metric list for all workloads:
//! `setup_s`, `peak_rss_mb`, read latency `p50_us`/`p99_us`, read
//! `throughput_qps` (median over fixed windows), `update_ms` (time from
//! starting a write until reads are served by its result: a whole
//! refresh, a delta publish, or a generation swap and 8 direct reads) and
//! `restart_ms` (snapshot load to first response). Times and rates are
//! reported at a reference host speed (see `reference`); the figures as
//! measured are in the provenance record. `--trace 1` runs the same loop in
//! alternating untraced and traced blocks and reports the per-layer
//! metrics; a layer a workload does not exercise reports 0. The last
//! stdout line is the result object; the line before it records the run's
//! provenance. The process exits nonzero when an output check fails.

mod churn;
mod corpus;
mod offline;
mod probe;
mod reference;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// How an end-to-end metric is brought to the reference host speed
/// (see `reference`).
#[derive(Clone, Copy)]
enum HostScale {
    Time,
    Rate,
    None,
}

/// End-to-end metrics: name, unit and host scaling. Every workload
/// reports all of them.
const END_TO_END: [(&str, &str, HostScale); 7] = [
    ("setup_s", "s", HostScale::Time),
    ("peak_rss_mb", "MB", HostScale::None),
    ("p50_us", "us", HostScale::Time),
    ("p99_us", "us", HostScale::Time),
    ("throughput_qps", "1/s", HostScale::Rate),
    ("update_ms", "ms", HostScale::Time),
    ("restart_ms", "ms", HostScale::Time),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: [(&str, &str); 34] = [
    ("datagen.generate_ms", "ms"),
    ("graph.sample_batch_ms", "ms"),
    ("model.train_step_ms", "ms"),
    ("model.samples_per_s", "1/s"),
    ("model.export_ms", "ms"),
    ("model.next_auc", "auc"),
    ("core.evaluate_offline_ms", "ms"),
    ("core.build_index_inputs_ms", "ms"),
    ("alloc.per_train_step", "count"),
    ("retrieval.index_build_ms", "ms"),
    ("retrieval.shard.retrieve_us", "us"),
    ("retrieval.shard.retrieve_batch_us", "us"),
    ("retrieval.snapshot.retrieve_us", "us"),
    ("retrieval.engine.retrieve_us", "us"),
    ("retrieval.engine.postings_per_request", "count"),
    ("retrieval.engine.keys_per_request", "count"),
    ("alloc.per_request", "count"),
    ("alloc.bytes_per_request", "bytes"),
    ("alloc.per_request_unsharded", "count"),
    ("retrieval.runtime.submit_us", "us"),
    ("retrieval.runtime.wait_us", "us"),
    ("retrieval.runtime.overhead_us", "us"),
    ("retrieval.runtime.shed", "count"),
    ("retrieval.delta.apply_ms", "ms"),
    ("retrieval.delta.shards_touched", "count"),
    ("alloc.per_delta", "count"),
    ("retrieval.snapshot.publish_us", "us"),
    ("retrieval.snapshot.first_read_after_publish_us", "us"),
    ("retrieval.store.save_ms", "ms"),
    ("retrieval.store.load_ms", "ms"),
    ("retrieval.store.snapshot_bytes", "bytes"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("harness.timer_overhead_ns", "ns"),
];

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for snapshot files, removed when the run ends.
    pub scratch: PathBuf,
}

impl Run {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn snapshot_path(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sizes of the generated inputs, for the provenance record.
    pub sizes: Vec<(&'static str, usize)>,
    /// The traced run's spans, written out when the run ends.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            if self.violations.len() < 20 {
                self.violations.push(message);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Untraced/traced block pairs of a traced run.
const TRACE_PAIRS: u32 = 2;

/// The traced run's measurement: `measure` runs in alternating untraced
/// and traced blocks, so drift over the run falls on both sides. Returns
/// the untraced and the traced blocks' results.
pub fn alternate<P>(
    tracer: &mut trace::Tracer,
    total: Duration,
    mut measure: impl FnMut(&mut trace::Tracer, Duration) -> Result<P, String>,
) -> Result<(Vec<P>, Vec<P>), String> {
    let block = total / (2 * TRACE_PAIRS);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        tracer.set_enabled(false);
        plain.push(measure(tracer, block)?);
        tracer.set_enabled(true);
        traced.push(measure(tracer, block)?);
    }
    Ok((plain, traced))
}

/// `traced / untraced - 1` of two medians: the tracing overhead's share.
pub fn overhead_share(untraced: &[f64], traced: &[f64]) -> f64 {
    match (stats::median(untraced), stats::median(traced)) {
        (Some(u), Some(t)) => t / u - 1.0,
        _ => f64::NAN,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, mut run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <offline-refresh|serve-zipf|churn-uniform> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", run.scratch.display());
        return ExitCode::FAILURE;
    }
    run.scratch = run.scratch.canonicalize().unwrap_or(run.scratch);
    let result = match workload.as_str() {
        "offline-refresh" => offline::run(&run),
        "serve-zipf" => serve::run(&run),
        "churn-uniform" => churn::run(&run),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&run.scratch);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reference_ms = reference::median_ms().unwrap_or(f64::NAN);
    let provenance = provenance(&workload, &run, &outcome, reference_ms);
    if let Some(tracer) = &outcome.tracer {
        let path = PathBuf::from(format!(
            ".perfbench/trace-{workload}-seed{}.jsonl",
            run.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path, &provenance) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    for v in &outcome.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let wanted: Vec<(&str, &str, HostScale)> = if run.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, HostScale::None))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    let speed = reference::NOMINAL_MS / reference_ms;
    let mut metrics = Vec::new();
    for (name, unit, scale) in wanted {
        let value = match (outcome.metrics.get(name), scale) {
            (Some(v), HostScale::Time) => v * speed,
            (Some(v), HostScale::Rate) => v / speed,
            (Some(v), HostScale::None) => *v,
            (None, _) if run.trace => 0.0,
            (None, _) => f64::NAN,
        };
        if !value.is_finite() {
            eprintln!("perfbench: {workload} did not measure {name}");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    println!("{provenance}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(args: &[String]) -> Result<(String, Run), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?.to_string();
    let seed: u64 = get("seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flags.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    let scratch = PathBuf::from(format!(".perfbench/run-{}", std::process::id()));
    Ok((
        workload,
        Run {
            seed,
            seconds,
            trace,
            scratch,
        },
    ))
}

/// The run's provenance as one JSON object, with the figures as measured
/// before host scaling and the reference kernel's median time.
fn provenance(workload: &str, run: &Run, outcome: &Outcome, reference_ms: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = git_commit(Path::new(".")).map_or("null".to_string(), |c| format!("\"{c}\""));
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let measured: Vec<String> = END_TO_END
        .iter()
        .filter_map(|&(name, ..)| {
            let v = outcome.metrics.get(name)?;
            Some(format!("\"{name}\":{}", json_number(*v)))
        })
        .collect();
    format!(
        "{{\"provenance\":{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"profile\":\"{profile}\",\"commit\":{commit},\
         \"sizes\":{{{}}},\"reference_ms\":{},\"nominal_reference_ms\":{},\
         \"measured\":{{{}}}}}}}",
        run.seed,
        json_number(run.seconds),
        run.trace,
        sizes.join(","),
        json_number(reference_ms),
        json_number(reference::NOMINAL_MS),
        measured.join(",")
    )
}

/// The commit `HEAD` names, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })?,
        None => head.to_string(),
    };
    let commit = commit.trim();
    (commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| commit.to_string())
}

/// A finite number as JSON (`null` otherwise), with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
