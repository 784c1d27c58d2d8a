//! Empirical validation of the paper's §5 analysis on random workloads:
//!
//! * **Lemma 1**: for every ordered pair `(x, v)` with reverse rank
//!   `ρ(v, x)`, the forward rank satisfies `ρ(x, v) ≤ 2^t · ρ(v, x)` once
//!   `t ≥ MaxGED`;
//! * **Theorem 1**: running RDT at `t ≥ MaxGED(S, k)` (+0.5 margin for the
//!   rank-convention offset, `DESIGN.md` §2) yields exact results; below
//!   the threshold, every *miss* lies beyond the guarantee radius
//!   `d_{k+1}(q) / ((s/k)^{1/t} − 1)`.

use rknn_bench::HarnessOpts;
use rknn_core::rank::{dk_from, rank};
use rknn_core::{BruteForce, Euclidean, SearchStats};
use rknn_eval::Table;
use rknn_index::LinearScan;
use rknn_lid::max_ged;
use rknn_rdt::theory::{guarantee_radius, reverse_rank_bound};
use rknn_rdt::{RdtAlgorithm, RdtParams};

fn main() {
    let opts = HarnessOpts::from_env();
    let k = 5usize;
    let mut table = Table::new(
        "Theory check: Lemma 1 and Theorem 1 on random workloads",
        &[
            "dataset",
            "n",
            "MaxGED(S,k)",
            "lemma1_viol",
            "exact_at_t*",
            "miss_radius_viol",
        ],
    );
    for (name, ds) in [
        (
            "uniform-2d",
            rknn_data::uniform_cube(opts.scaled(150), 2, opts.seed),
        ),
        (
            "blobs-3d",
            rknn_data::gaussian_blobs(opts.scaled(150), 3, 4, 0.7, opts.seed),
        ),
        (
            "sequoia-like",
            rknn_data::sequoia_like(opts.scaled(150), opts.seed),
        ),
    ] {
        let ds = ds.into_shared();
        let n = ds.len();
        let t_star = max_ged(&ds, &Euclidean, k);
        let m = Euclidean;

        // Lemma 1 over all ordered pairs at t = MaxGED (inclusive-rank
        // convention as in the paper's proof).
        let mut lemma_violations = 0usize;
        for (v, vp) in ds.iter() {
            for (x, xp) in ds.iter() {
                if v == x {
                    continue;
                }
                let fwd = rank(&ds, &m, xp, v, None) as f64;
                let rev = rank(&ds, &m, vp, x, None);
                if fwd > reverse_rank_bound(t_star + 0.5, rev) + 1e-9 {
                    lemma_violations += 1;
                }
            }
        }

        // Theorem 1: exactness at t* + 0.5 and miss-radius guarantee below.
        let idx = LinearScan::build(ds.clone(), Euclidean);
        let bf = BruteForce::new(ds.clone(), Euclidean);
        let queries = rknn_data::sample_queries(n, 25, opts.seed);
        let mut st = SearchStats::new();
        let rdt_exact = RdtAlgorithm::new(RdtParams::new(k, t_star + 0.5));
        let mut exact_everywhere = true;
        for &q in &queries {
            let truth: Vec<_> = bf.rknn(q, k, &mut st).iter().map(|x| x.id).collect();
            if rdt_exact.answer(&idx, q).ids() != truth {
                exact_everywhere = false;
            }
        }
        // Below the threshold, misses must respect the guarantee radius.
        let t_low = (t_star * 0.3).max(0.8);
        let rdt_low = RdtAlgorithm::new(RdtParams::new(k, t_low));
        let mut radius_violations = 0usize;
        for &q in &queries {
            let ans = rdt_low.answer(&idx, q);
            let got: std::collections::HashSet<_> = ans.ids().into_iter().collect();
            let d_ref = dk_from(&ds, &m, ds.point(q), k + 1, Some(q)).unwrap_or(f64::INFINITY);
            let radius = guarantee_radius(d_ref, ans.stats.retrieved, k, t_low);
            for missed in bf
                .rknn(q, k, &mut st)
                .iter()
                .filter(|x| !got.contains(&x.id))
            {
                // Guaranteed: every miss lies strictly beyond the radius.
                if missed.dist <= radius * (1.0 - 1e-9) {
                    radius_violations += 1;
                }
            }
        }
        table.push_row(vec![
            name.to_string(),
            n.to_string(),
            format!("{t_star:.2}"),
            lemma_violations.to_string(),
            if exact_everywhere {
                "yes".into()
            } else {
                "NO".to_string()
            },
            radius_violations.to_string(),
        ]);
    }
    opts.emit("theory_check", &table);
    println!("expected: zero Lemma 1 violations, exactness at t*, zero miss-radius violations");
}
