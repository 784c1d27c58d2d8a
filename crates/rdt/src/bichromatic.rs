//! Bichromatic reverse-kNN queries with RDT's machinery.
//!
//! In the bichromatic setting (§1 of the paper, \[29, 48, 50\]) the data are
//! split into two types — think *services* and *clients*. A query at a
//! service location `q` asks for all clients `c` that have `q` among their
//! `k` nearest **services**: `d(c, q) ≤ d_k^S(c)` where `d_k^S(c)` is the
//! distance from `c` to its k-th nearest service.
//!
//! The paper's monochromatic machinery transfers directly:
//!
//! * **witnesses** of a client `c` are *services* `s` with
//!   `d(c, s) < d(c, q)`; `k` witnesses reject `c` (Assertion 1 verbatim);
//! * **lazy accept**: once the service search has expanded past
//!   `2·d(q, c)`, every potential witness of `c` has been discovered
//!   (triangle inequality, exactly as Assertion 2), so `W(c) < k` certifies
//!   `c`;
//! * the **dimensional test** runs on the expanding *service* stream, whose
//!   growth rate is what bounds undiscovered witnesses.
//!
//! Both point sets are streamed outward from `q` in lockstep: the service
//! frontier is kept at twice the client frontier so accept/reject censuses
//! are complete when consulted.

use crate::answer::{RdtQueryStats, RknnAnswer, Termination};
use crate::params::RdtParams;
use rknn_core::{Metric, Neighbor, PointId, SearchStats};
use rknn_index::KnnIndex;

/// Bichromatic RDT query handle.
///
/// The two index substrates may be of different types; they must share the
/// metric and dimensionality.
#[derive(Debug, Clone, Copy)]
pub struct BichromaticRdt {
    params: RdtParams,
}

struct ClientCand {
    id: PointId,
    dist: f64,
    witnesses: usize,
    accepted: bool,
    rejected: bool,
}

impl BichromaticRdt {
    /// Creates a handle.
    pub fn new(params: RdtParams) -> Self {
        BichromaticRdt { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> RdtParams {
        self.params
    }

    /// All clients having `q` among their `k` nearest services.
    ///
    /// `q` is given by coordinates; pass `exclude_service` when `q` is a
    /// member of the service set.
    pub fn query<M, IS, IC>(
        &self,
        services: &IS,
        clients: &IC,
        q: &[f64],
        exclude_service: Option<PointId>,
    ) -> RknnAnswer
    where
        M: Metric,
        IS: KnnIndex<M> + ?Sized,
        IC: KnnIndex<M> + ?Sized,
    {
        let k = self.params.k;
        let t = self.params.t;
        let metric = services.metric();
        let n_services = services
            .num_points()
            .saturating_sub(usize::from(exclude_service.is_some()));
        let service_cap = self.params.rank_cap(n_services);

        let mut service_cursor = services.cursor(q, exclude_service);
        let mut client_cursor = clients.cursor(q, None);

        // Discovered services (distances from q), in retrieval order.
        let mut found_services: Vec<Neighbor> = Vec::new();
        let mut candidates: Vec<ClientCand> = Vec::new();
        // Ascending indices of the candidates neither accepted nor
        // rejected: the only ones a new service can still affect.
        let mut open: Vec<usize> = Vec::new();
        let mut omega = f64::INFINITY;
        let mut witness_dist_comps = 0u64;
        let mut lazy_accepts = 0usize;
        // `exhausted`: the service cursor ran dry — witness censuses are
        // complete for every client. `capped`: the rank cap stopped the
        // stream — censuses are INcomplete, so lazy accepts must not rely
        // on it (unresolved candidates go to verification instead).
        let mut svc_exhausted = false;
        let mut svc_capped = false;
        let mut termination = Termination::Exhausted;
        let inv_t = 1.0 / t;
        let kf = k as f64;

        // Advances the service frontier to `radius`, updating witnesses of
        // all current candidates and the dimensional-test bound.
        let mut advance_services = |target: f64,
                                    found: &mut Vec<Neighbor>,
                                    cands: &mut Vec<ClientCand>,
                                    open: &mut Vec<usize>,
                                    omega: &mut f64,
                                    witness_dist_comps: &mut u64,
                                    lazy_accepts: &mut usize,
                                    exhausted: &mut bool,
                                    capped: &mut bool| {
            while !(*exhausted || *capped) && found.last().map(|s| s.dist < target).unwrap_or(true)
            {
                let Some(srv) = service_cursor.next() else {
                    *exhausted = true;
                    break;
                };
                let s_rank = found.len() + 1;
                // Witness updates: the new service may witness any open
                // client; clients it rejects leave the open list.
                let srv_point = services.point(srv.id);
                open.retain(|&i| {
                    let c = &mut cands[i];
                    *witness_dist_comps += 1;
                    if metric.dist(srv_point, clients.point(c.id)) < c.dist {
                        c.witnesses += 1;
                        if c.witnesses >= k {
                            c.rejected = true;
                        }
                    }
                    !c.rejected
                });
                // Dimensional test on the service stream.
                if s_rank > k && srv.dist > 0.0 {
                    let denom = (s_rank as f64 / kf).powf(inv_t) - 1.0;
                    if denom > 0.0 {
                        let bound = srv.dist / denom;
                        if bound < *omega {
                            *omega = bound;
                        }
                    }
                }
                found.push(srv);
                if found.len() >= service_cap {
                    *capped = true;
                }
            }
            // Lazy accepts for clients whose census is complete: the
            // frontier passed 2·d(q,c) or every service has been seen.
            let frontier = found.last().map(|s| s.dist).unwrap_or(0.0);
            open.retain(|&i| {
                let c = &mut cands[i];
                if frontier >= 2.0 * c.dist || *exhausted {
                    c.accepted = true;
                    *lazy_accepts += 1;
                }
                !c.accepted
            });
        };

        // Expand the client stream; terminate via the service-side ω.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(client) = client_cursor.next() else {
                break;
            };
            if client.dist > omega {
                termination = Termination::Omega;
                break;
            }
            // Ensure the service frontier is at 2·d(q, c) before counting
            // this client's witnesses.
            advance_services(
                2.0 * client.dist,
                &mut found_services,
                &mut candidates,
                &mut open,
                &mut omega,
                &mut witness_dist_comps,
                &mut lazy_accepts,
                &mut svc_exhausted,
                &mut svc_capped,
            );
            // Count witnesses among already-discovered services. A witness
            // s has d(c,s) < d(c,q), hence d(q,s) < 2·d(q,c): services at or
            // beyond that radius cannot witness this client.
            let cpoint = clients.point(client.id);
            let mut w = 0usize;
            for s in &found_services {
                if s.dist >= 2.0 * client.dist {
                    break;
                }
                witness_dist_comps += 1;
                if metric.dist(cpoint, services.point(s.id)) < client.dist {
                    w += 1;
                }
            }
            let rejected = w >= k;
            let frontier = found_services.last().map(|s| s.dist).unwrap_or(0.0);
            let accepted = !rejected && w < k && (frontier >= 2.0 * client.dist || svc_exhausted);
            if accepted {
                lazy_accepts += 1;
            } else if !rejected {
                open.push(candidates.len());
            }
            candidates.push(ClientCand {
                id: client.id,
                dist: client.dist,
                witnesses: w,
                accepted,
                rejected,
            });
            // Re-check the bound after the service advance tightened ω.
            if client.dist > omega {
                termination = Termination::Omega;
                break;
            }
        }

        let mut search = client_cursor.stats();
        search.absorb(&service_cursor.stats());
        drop(client_cursor);
        drop(service_cursor);

        // Refinement: verify unresolved candidates against the service set.
        let mut result = Vec::new();
        let mut lazy_rejects = 0usize;
        let mut verified = 0usize;
        let mut verified_accepted = 0usize;
        let mut verify_stats = SearchStats::new();
        for c in &candidates {
            if c.accepted {
                result.push(Neighbor::new(c.id, c.dist));
                continue;
            }
            if c.rejected {
                lazy_rejects += 1;
                continue;
            }
            verified += 1;
            let nn = services.knn(clients.point(c.id), k, None, &mut verify_stats);
            let dk = if nn.len() < k {
                f64::INFINITY
            } else {
                nn[k - 1].dist
            };
            if dk >= c.dist {
                verified_accepted += 1;
                result.push(Neighbor::new(c.id, c.dist));
            }
        }
        search.absorb(&verify_stats);
        rknn_core::neighbor::sort_neighbors(&mut result);

        RknnAnswer {
            result,
            stats: RdtQueryStats {
                retrieved: candidates.len(),
                filter_set_size: candidates.len(),
                excluded: 0,
                lazy_accepts,
                lazy_rejects,
                verified,
                verified_accepted,
                // Every processed bichromatic pair evaluates its distance
                // (no decided-pair shortcut here), so the two counters
                // coincide.
                witness_pairs: witness_dist_comps,
                witness_dist_comps,
                omega,
                termination,
                search,
            },
        }
    }
}

/// Exact bichromatic reverse-kNN by brute force (ground truth for tests and
/// recall computation).
pub fn bichromatic_brute<M: Metric>(
    services: &rknn_core::Dataset,
    clients: &rknn_core::Dataset,
    metric: &M,
    q: &[f64],
    k: usize,
    exclude_service: Option<PointId>,
) -> Vec<Neighbor> {
    let mut out = Vec::new();
    for (c, cp) in clients.iter() {
        let dcq = metric.dist(cp, q);
        let mut closer = 0usize;
        for (s, sp) in services.iter() {
            if Some(s) == exclude_service {
                continue;
            }
            if metric.dist(cp, sp) < dcq {
                closer += 1;
                if closer >= k {
                    break;
                }
            }
        }
        if closer < k {
            out.push(Neighbor::new(c, dcq));
        }
    }
    rknn_core::neighbor::sort_neighbors(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rknn_core::{Dataset, Euclidean};
    use rknn_index::LinearScan;
    use std::sync::Arc;

    fn uniform(n: usize, dim: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap().into_shared()
    }

    #[test]
    fn exact_at_high_t() {
        let services = uniform(150, 2, 80);
        let clients = uniform(220, 2, 81);
        let is = LinearScan::build(services.clone(), Euclidean);
        let ic = LinearScan::build(clients.clone(), Euclidean);
        let handle = BichromaticRdt::new(RdtParams::new(3, 40.0));
        for qi in [0usize, 75, 149] {
            let q = services.point(qi).to_vec();
            let got = handle.query(&is, &ic, &q, Some(qi)).ids();
            let want: Vec<_> = bichromatic_brute(&services, &clients, &Euclidean, &q, 3, Some(qi))
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(got, want, "qi={qi}");
        }
    }

    #[test]
    fn no_false_positives_at_any_t() {
        let services = uniform(120, 2, 82);
        let clients = uniform(180, 2, 83);
        let is = LinearScan::build(services.clone(), Euclidean);
        let ic = LinearScan::build(clients.clone(), Euclidean);
        for t in [1.0, 2.0, 5.0] {
            let handle = BichromaticRdt::new(RdtParams::new(4, t));
            let q = services.point(11).to_vec();
            let got = handle.query(&is, &ic, &q, Some(11));
            let want: std::collections::HashSet<_> =
                bichromatic_brute(&services, &clients, &Euclidean, &q, 4, Some(11))
                    .iter()
                    .map(|n| n.id)
                    .collect();
            for n in &got.result {
                assert!(want.contains(&n.id), "false positive at t={t}");
            }
        }
    }

    #[test]
    fn recall_improves_with_t() {
        let services = uniform(400, 3, 84);
        let clients = uniform(500, 3, 85);
        let is = LinearScan::build(services.clone(), Euclidean);
        let ic = LinearScan::build(clients.clone(), Euclidean);
        let q = services.point(5).to_vec();
        let want: std::collections::HashSet<_> =
            bichromatic_brute(&services, &clients, &Euclidean, &q, 5, Some(5))
                .iter()
                .map(|n| n.id)
                .collect();
        let mut prev = 0.0;
        for t in [1.0, 3.0, 9.0, 30.0] {
            let handle = BichromaticRdt::new(RdtParams::new(5, t));
            let got = handle.query(&is, &ic, &q, Some(5));
            let recall = if want.is_empty() {
                1.0
            } else {
                got.result.iter().filter(|n| want.contains(&n.id)).count() as f64
                    / want.len() as f64
            };
            assert!(recall >= prev - 0.05, "recall regressed at t={t}");
            prev = prev.max(recall);
        }
        assert!(prev >= 0.99, "high t reaches full recall, got {prev}");
    }

    #[test]
    fn brute_force_handles_empty_sides() {
        let services = Dataset::from_rows(&[vec![0.0, 0.0]]).unwrap();
        let clients = Dataset::from_flat(2, vec![]).unwrap();
        let got = bichromatic_brute(&services, &clients, &Euclidean, &[0.0, 0.0], 1, None);
        assert!(got.is_empty());
    }
}
