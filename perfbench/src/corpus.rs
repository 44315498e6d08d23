//! Synthetic mixed-curvature corpus for the serving workloads.
//!
//! Every node belongs to one of a few clusters. A cluster has a centre in
//! the tangent space at the origin of an H⁸×S⁸ product; a node's point in
//! each relation space is a wrapped normal around that space's copy of its
//! centre — Gaussian noise in the tangent space, then `exp0` onto the
//! product. Each point also draws its own pair of attention weights. The
//! workload seed drives one RNG for the corpus and the fresh ads of later
//! deltas, and a second one for the request stream, so one seed always
//! gives the same inputs.

use std::sync::Arc;

use amcad_manifold::{ProductManifold, SubspaceSpec};
use amcad_mnn::MixedPointSet;
use amcad_retrieval::{IndexBuildInputs, IndexDelta, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tangent dimension of each of the two curvature components.
const COMPONENT_DIM: usize = 8;
/// Spread of cluster centres around the origin (per tangent coordinate).
const CENTRE_SPREAD: f64 = 0.5;
/// How far a relation space moves a cluster centre (per coordinate).
const SPACE_SHIFT: f64 = 0.08;
/// Spread of a point around its cluster centre (per coordinate).
const POINT_SPREAD: f64 = 0.12;

/// Corpus and request-stream sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSize {
    pub queries: usize,
    pub items: usize,
    pub ads: usize,
    pub clusters: usize,
}

impl CorpusSize {
    /// The serving workloads' corpus: about 1,000 queries, 2,000 items and
    /// 8,000 ads.
    pub const SERVING: CorpusSize = CorpusSize {
        queries: 1_000,
        items: 2_000,
        ads: 8_000,
        clusters: 48,
    };
}

/// The relation spaces a node is embedded in.
#[derive(Clone, Copy)]
enum Space {
    QueryQuery,
    QueryItem,
    QueryAd,
    ItemItem,
    ItemAd,
}

const SPACES: [Space; 5] = [
    Space::QueryQuery,
    Space::QueryItem,
    Space::QueryAd,
    Space::ItemItem,
    Space::ItemAd,
];

/// A generated corpus: the index-build inputs, each node's cluster, and
/// the generator that makes fresh ads for later deltas.
pub struct Corpus {
    pub size: CorpusSize,
    pub inputs: IndexBuildInputs,
    /// Query ids are `0..queries`, item ids follow, then ad ids.
    pub query_cluster: Vec<usize>,
    pub item_cluster: Vec<usize>,
    points: PointGenerator,
}

/// Draws wrapped-normal points around per-space cluster centres.
struct PointGenerator {
    manifold: ProductManifold,
    /// `centres[space][cluster]`: tangent-space cluster centre.
    centres: Vec<Vec<Vec<f64>>>,
    rng: StdRng,
    next_ad: u32,
}

impl PointGenerator {
    fn set(&self) -> MixedPointSet {
        MixedPointSet::new(self.manifold.clone())
    }

    fn cluster(&mut self) -> usize {
        self.rng.gen_range(0..self.centres[0].len())
    }

    fn push(&mut self, set: &mut MixedPointSet, space: Space, id: u32, cluster: usize) {
        let tangent: Vec<f64> = self.centres[space as usize][cluster]
            .iter()
            .map(|x| x + POINT_SPREAD * normal(&mut self.rng))
            .collect();
        let hyperbolic = self.rng.gen_range(0.2..0.8);
        set.push(
            id,
            &self.manifold.exp0(&tangent),
            &[hyperbolic, 1.0 - hyperbolic],
        );
    }
}

impl Corpus {
    /// Generate the corpus of `size` from `seed`.
    pub fn generate(size: CorpusSize, seed: u64) -> Corpus {
        let manifold = ProductManifold::new(vec![
            SubspaceSpec::new(COMPONENT_DIM, -1.0),
            SubspaceSpec::new(COMPONENT_DIM, 1.0),
        ]);
        let dim = manifold.total_dim();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4F05);
        let base: Vec<Vec<f64>> = (0..size.clusters)
            .map(|_| (0..dim).map(|_| CENTRE_SPREAD * normal(&mut rng)).collect())
            .collect();
        let centres = SPACES
            .iter()
            .map(|_| {
                base.iter()
                    .map(|c| {
                        c.iter()
                            .map(|x| x + SPACE_SHIFT * normal(&mut rng))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut points = PointGenerator {
            manifold,
            centres,
            rng,
            next_ad: (size.queries + size.items) as u32,
        };
        let (mut qq, mut qi, mut qa) = (points.set(), points.set(), points.set());
        let mut query_cluster = Vec::with_capacity(size.queries);
        for id in 0..size.queries as u32 {
            let c = points.cluster();
            query_cluster.push(c);
            points.push(&mut qq, Space::QueryQuery, id, c);
            points.push(&mut qi, Space::QueryItem, id, c);
            points.push(&mut qa, Space::QueryAd, id, c);
        }
        let (mut iq, mut ii, mut ia) = (points.set(), points.set(), points.set());
        let mut item_cluster = Vec::with_capacity(size.items);
        for k in 0..size.items {
            let id = (size.queries + k) as u32;
            let c = points.cluster();
            item_cluster.push(c);
            points.push(&mut iq, Space::QueryItem, id, c);
            points.push(&mut ii, Space::ItemItem, id, c);
            points.push(&mut ia, Space::ItemAd, id, c);
        }
        let mut corpus = Corpus {
            size,
            inputs: IndexBuildInputs {
                queries_qq: Arc::new(qq),
                queries_qi: Arc::new(qi),
                items_qi: Arc::new(iq),
                queries_qa: Arc::new(qa),
                ads_qa: points.set(),
                items_ii: Arc::new(ii),
                items_ia: Arc::new(ia),
                ads_ia: points.set(),
            },
            query_cluster,
            item_cluster,
            points,
        };
        let (ads_qa, ads_ia) = corpus.fresh_ads(size.ads);
        corpus.inputs.ads_qa = ads_qa;
        corpus.inputs.ads_ia = ads_ia;
        corpus
    }

    /// `count` ads with ids never used before, in both ad spaces.
    pub fn fresh_ads(&mut self, count: usize) -> (MixedPointSet, MixedPointSet) {
        let p = &mut self.points;
        let (mut qa, mut ia) = (p.set(), p.set());
        for _ in 0..count {
            let id = p.next_ad;
            p.next_ad += 1;
            let c = p.cluster();
            p.push(&mut qa, Space::QueryAd, id, c);
            p.push(&mut ia, Space::ItemAd, id, c);
        }
        (qa, ia)
    }

    /// A delta that retires `count` ads drawn uniformly from `live` (the
    /// corpus's current ad ids) and adds as many fresh ones.
    pub fn churn_delta(&mut self, live: &[u32], count: usize) -> IndexDelta {
        let mut pool = live.to_vec();
        let mut retired = Vec::with_capacity(count);
        for _ in 0..count.min(pool.len()) {
            let k = self.points.rng.gen_range(0..pool.len());
            retired.push(pool.swap_remove(k));
        }
        let (added_ads_qa, added_ads_ia) = self.fresh_ads(count);
        IndexDelta {
            added_ads_qa,
            added_ads_ia,
            retired_ads: retired,
        }
    }
}

/// The request stream of one workload: queries drawn uniformly or by a Zipf law,
/// each with 0–3 pre-click items, mostly from the query's own cluster.
pub struct RequestStream {
    rng: StdRng,
    items_by_cluster: Vec<Vec<u32>>,
    query_cluster: Vec<usize>,
    first_item: u32,
    items: usize,
    /// Cumulative Zipf weights over query ranks; `None` draws uniformly.
    zipf_cdf: Option<Vec<f64>>,
    /// Query id of each Zipf rank (a seeded permutation).
    rank_to_query: Vec<u32>,
    /// Pre-click items per request; `None` draws 0–3.
    clicks: Option<usize>,
}

impl RequestStream {
    /// Queries follow a Zipf law with exponent `exponent` over a seeded
    /// ranking of all queries.
    pub fn zipf(corpus: &Corpus, exponent: f64, seed: u64) -> RequestStream {
        let mut stream = Self::uniform(corpus, seed);
        let mut cdf = Vec::with_capacity(corpus.size.queries);
        let mut total = 0.0;
        for rank in 1..=corpus.size.queries {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        stream.zipf_cdf = Some(cdf);
        stream
    }

    /// Queries drawn uniformly.
    pub fn uniform(corpus: &Corpus, seed: u64) -> RequestStream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F4E_0E57);
        let mut items_by_cluster = vec![Vec::new(); corpus.size.clusters];
        let first_item = corpus.size.queries as u32;
        for (k, &c) in corpus.item_cluster.iter().enumerate() {
            items_by_cluster[c].push(first_item + k as u32);
        }
        let mut rank_to_query: Vec<u32> = (0..corpus.size.queries as u32).collect();
        for i in (1..rank_to_query.len()).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_query.swap(i, j);
        }
        RequestStream {
            rng,
            items_by_cluster,
            query_cluster: corpus.query_cluster.clone(),
            first_item,
            items: corpus.size.items,
            zipf_cdf: None,
            rank_to_query,
            clicks: None,
        }
    }

    /// Queries drawn uniformly, each request with exactly `clicks`
    /// pre-click items, so every request does about the same work.
    pub fn uniform_with_clicks(corpus: &Corpus, seed: u64, clicks: usize) -> RequestStream {
        let mut stream = Self::uniform(corpus, seed);
        stream.clicks = Some(clicks);
        stream
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let query = match &self.zipf_cdf {
            Some(cdf) => {
                let u: f64 = self.rng.gen();
                let rank = cdf.partition_point(|&p| p < u).min(cdf.len() - 1);
                self.rank_to_query[rank]
            }
            None => self.rank_to_query[self.rng.gen_range(0..self.rank_to_query.len())],
        };
        let clicks = match self.clicks {
            Some(n) => n,
            None => self.rng.gen_range(0..=3usize),
        };
        let own = &self.items_by_cluster[self.query_cluster[query as usize]];
        let preclick_items = (0..clicks)
            .map(|_| {
                if !own.is_empty() && self.rng.gen_bool(0.8) {
                    own[self.rng.gen_range(0..own.len())]
                } else {
                    self.first_item + self.rng.gen_range(0..self.items) as u32
                }
            })
            .collect();
        Request {
            query,
            preclick_items,
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// A standard normal draw (Box–Muller).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: CorpusSize = CorpusSize {
        queries: 30,
        items: 50,
        ads: 80,
        clusters: 5,
    };

    fn coords(set: &MixedPointSet) -> Vec<(u32, Vec<f64>, Vec<f64>)> {
        (0..set.len())
            .map(|i| (set.id(i), set.point(i).to_vec(), set.weight(i).to_vec()))
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_requests() {
        let mut a = Corpus::generate(SMALL, 7);
        let mut b = Corpus::generate(SMALL, 7);
        for (x, y) in [
            (&a.inputs.ads_qa, &b.inputs.ads_qa),
            (&a.inputs.ads_ia, &b.inputs.ads_ia),
            (&*a.inputs.queries_qq, &*b.inputs.queries_qq),
            (&*a.inputs.items_ia, &*b.inputs.items_ia),
        ] {
            assert_eq!(coords(x), coords(y));
        }
        let live: Vec<u32> = a.inputs.ads_qa.ids().to_vec();
        let (da, db) = (a.churn_delta(&live, 4), b.churn_delta(&live, 4));
        assert_eq!(da.retired_ads, db.retired_ads);
        assert_eq!(coords(&da.added_ads_qa), coords(&db.added_ads_qa));
        let mut sa = RequestStream::zipf(&a, 1.1, 7);
        let mut sb = RequestStream::zipf(&b, 1.1, 7);
        assert_eq!(sa.take(200), sb.take(200));
        let c = Corpus::generate(SMALL, 8);
        assert_ne!(coords(&a.inputs.ads_qa), coords(&c.inputs.ads_qa));
    }

    #[test]
    fn corpus_is_valid_and_ids_are_disjoint() {
        let mut c = Corpus::generate(SMALL, 3);
        c.inputs.validate().expect("generated inputs are valid");
        assert_eq!(c.inputs.queries_qa.len(), SMALL.queries);
        assert_eq!(c.inputs.items_qi.len(), SMALL.items);
        assert_eq!(c.inputs.ads_qa.ids(), c.inputs.ads_ia.ids());
        let first_ad = (SMALL.queries + SMALL.items) as u32;
        assert!(c.inputs.ads_qa.ids().iter().all(|&id| id >= first_ad));
        let live = c.inputs.ads_qa.ids().to_vec();
        let delta = c.churn_delta(&live, 5);
        assert!(delta
            .added_ads_qa
            .ids()
            .iter()
            .all(|&id| id >= first_ad + SMALL.ads as u32));
        for w in 0..c.inputs.ads_qa.len() {
            let weight = c.inputs.ads_qa.weight(w);
            assert!((weight.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_stream_concentrates_on_head_queries() {
        let c = Corpus::generate(SMALL, 5);
        let mut zipf = RequestStream::zipf(&c, 1.1, 5);
        let mut counts = vec![0usize; SMALL.queries];
        for r in zipf.take(3_000) {
            counts[r.query as usize] += 1;
            assert!(r.preclick_items.len() <= 3);
        }
        counts.sort_unstable();
        let top = counts[SMALL.queries - 1] as f64 / 3_000.0;
        // rank 1 of 30 carries 1/H(30, 1.1) ≈ 27% of a Zipf(1.1) law
        assert!(top > 0.2 && top < 0.35, "head share {top}");
    }

    #[test]
    fn fixed_click_stream_gives_every_request_that_many_clicks() {
        let c = Corpus::generate(SMALL, 6);
        let mut fixed = RequestStream::uniform_with_clicks(&c, 6, 2);
        for r in fixed.take(500) {
            assert_eq!(r.preclick_items.len(), 2);
            assert!((r.query as usize) < SMALL.queries);
        }
    }
}
