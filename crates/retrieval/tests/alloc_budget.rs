//! Allocation budget of the serving paths: the sharded gather must cost
//! the same number of heap allocations per request whatever the shard
//! count, stay within a fixed margin of the single engine's count, and
//! the batch path must not allocate more per request than the single
//! request path.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel do not pollute each other's counts. Every engine
//! here serves inline (fan-out width 1), so a request's allocations all
//! happen on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use amcad_manifold::{ProductManifold, SubspaceSpec};
use amcad_mnn::MixedPointSet;
use amcad_retrieval::{
    IndexBuildInputs, Request, RetrievalEngine, RetrievalError, RetrievalResponse, ShardedEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (fresh and resized) on the
/// allocating thread.
struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        // `try_with`: allocations during thread teardown, after the
        // counter is gone, are simply not counted
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only a const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `f` runs (its result is dropped
/// before the count is read, so frees never matter).
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// Random points on an H⁴×S⁴ product, one per id.
fn points(ids: std::ops::Range<u32>, rng: &mut StdRng) -> MixedPointSet {
    let manifold =
        ProductManifold::new(vec![SubspaceSpec::new(4, -1.0), SubspaceSpec::new(4, 1.0)]);
    let mut set = MixedPointSet::new(manifold.clone());
    for id in ids {
        let tangent: Vec<f64> = (0..8).map(|_| rng.gen_range(-0.4..0.4)).collect();
        let hyperbolic = rng.gen_range(0.2..0.8);
        set.push(
            id,
            &manifold.exp0(&tangent),
            &[hyperbolic, 1.0 - hyperbolic],
        );
    }
    set
}

/// Queries 0..40, items 100..180, ads 1000..1400.
fn inputs() -> IndexBuildInputs {
    let mut rng = StdRng::seed_from_u64(0xa110c);
    let mut shared = |ids: std::ops::Range<u32>| Arc::new(points(ids, &mut rng));
    let (queries_qq, queries_qi, items_qi, queries_qa) = (
        shared(0..40),
        shared(0..40),
        shared(100..180),
        shared(0..40),
    );
    let (items_ii, items_ia) = (shared(100..180), shared(100..180));
    IndexBuildInputs {
        queries_qq,
        queries_qi,
        items_qi,
        queries_qa,
        ads_qa: points(1000..1400, &mut rng),
        items_ii,
        items_ia,
        ads_ia: points(1000..1400, &mut rng),
    }
}

/// Known and unknown queries with zero to two pre-click items.
fn requests() -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    (0..32)
        .map(|_| Request {
            query: rng.gen_range(0..44u32),
            preclick_items: (0..rng.gen_range(0..3usize))
                .map(|_| rng.gen_range(100..180u32))
                .collect(),
        })
        .collect()
}

const TOP_K: usize = 20;

fn unsharded(inputs: &IndexBuildInputs) -> RetrievalEngine {
    RetrievalEngine::builder()
        .top_k(TOP_K)
        .threads(1)
        .build(inputs)
        .unwrap()
}

fn sharded(inputs: &IndexBuildInputs, shards: usize, replicas: usize) -> ShardedEngine {
    ShardedEngine::builder()
        .shards(shards)
        .replicas(replicas)
        .top_k(TOP_K)
        .threads(1)
        .build_threads(1)
        .build(inputs)
        .unwrap()
}

/// Allocations per request of `serve`, after one untimed warm-up pass
/// (first-use lazy initialisation is not the request's cost).
fn per_request(
    requests: &[Request],
    serve: impl Fn(&Request) -> Result<RetrievalResponse, RetrievalError>,
) -> Vec<u64> {
    for request in requests {
        let _ = serve(request);
    }
    requests
        .iter()
        .map(|request| allocations(|| serve(request)))
        .collect()
}

#[test]
fn sharded_gather_allocations_do_not_grow_with_the_shard_count() {
    let inputs = inputs();
    let requests = requests();
    let single = unsharded(&inputs);
    let baseline = per_request(&requests, |r| single.retrieve(r));
    for replicas in [1usize, 2] {
        let counts: Vec<(usize, Vec<u64>)> = [2usize, 4, 7]
            .into_iter()
            .map(|shards| {
                let engine = sharded(&inputs, shards, replicas);
                assert_eq!(engine.active_shards(), shards);
                (shards, per_request(&requests, |r| engine.retrieve(r)))
            })
            .collect();
        for (shards, count) in &counts[1..] {
            assert_eq!(
                count, &counts[0].1,
                "{replicas} replicas: {shards} shards allocate differently from 2 shards"
            );
        }
        for ((request, sharded), unsharded) in requests.iter().zip(&counts[0].1).zip(&baseline) {
            assert!(
                *sharded <= unsharded + 8,
                "{replicas} replicas: sharded retrieve made {sharded} allocations, \
                 unsharded {unsharded}, on {request:?}"
            );
        }
    }
}

#[test]
fn batches_allocate_no_more_per_request_than_single_requests() {
    let inputs = inputs();
    let requests = requests();
    for shards in [2usize, 4, 7] {
        let engine = sharded(&inputs, shards, 2);
        let single: u64 = per_request(&requests, |r| engine.retrieve(r)).iter().sum();
        // batches of 8, the serving runtime's batch size, and the whole set
        for batch in [8usize, requests.len()] {
            let batched: u64 = requests
                .chunks(batch)
                .map(|chunk| allocations(|| engine.retrieve_batch(chunk)))
                .sum();
            assert!(
                batched <= single,
                "{shards} shards, batches of {batch}: {batched} allocations for {} \
                 requests, {single} when served one by one",
                requests.len()
            );
        }
    }
}
