//! Host-speed reference. On a shared host every timing of a run drifts
//! with the host: the same run of a workload read 20–40% slower some
//! minutes than others, which no median inside one run removes. So each
//! run also times a fixed kernel of the benchmark's own — random reads and
//! writes over a 4 MiB table mixed with floating-point work — at points
//! where the program is idle, and the end-to-end times are reported at the
//! kernel's nominal speed: a time is multiplied, and a rate divided, by
//! `NOMINAL_MS / median kernel time`. The kernel is not the program's
//! code, so a change to the program moves the reported figures by the same
//! share as the measured ones. The kernel follows the host's drift for the
//! serving reads better than for training, whose slow spells it often
//! misses. The raw figures and the kernel's median are printed in the
//! run's provenance record.

// amcad-lint: allow(no-std-sync-primitives) — the benchmark is a package of its own without the compat stubs; the lock is taken only between measured operations, on one thread at a time
use std::sync::Mutex;
use std::time::Instant;

/// The kernel's median time in ms on the 2-vCPU shared VM the bounds in
/// `BENCHMARK.json` were measured on; figures are reported at this speed.
pub const NOMINAL_MS: f64 = 2.5;
const TABLE: usize = 1 << 19;
const STEPS: usize = 40_000;

struct Reference {
    table: Vec<f64>,
    samples_ms: Vec<f64>,
}

static REFERENCE: Mutex<Reference> = Mutex::new(Reference {
    table: Vec::new(),
    samples_ms: Vec::new(),
});

/// Time one run of the kernel and keep the sample. Call it only where the
/// program has no work in flight, so that the kernel times the host and
/// not the program.
pub fn sample() {
    let mut guard = REFERENCE.lock().expect("no holder panics");
    let reference = &mut *guard;
    if reference.table.is_empty() {
        // filled once, untimed
        reference.table = (0..TABLE).map(|i| (i % 97) as f64 * 0.01).collect();
        reference.samples_ms.reserve(4_096);
    }
    let table = &mut reference.table;
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (TABLE - 1);
        let v = table[j];
        acc += (v * v + 1.0).sqrt().ln_1p();
        table[j] = v * 0.999 + 0.001;
    }
    std::hint::black_box(acc);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    reference.samples_ms.push(ms);
}

/// The median kernel time in ms over the run's samples.
pub fn median_ms() -> Option<f64> {
    crate::stats::median(&REFERENCE.lock().expect("no holder panics").samples_ms)
}
