//! Subcommand implementations.

use crate::args::Args;
use rknn_baselines::{MrknncopAlgorithm, NaiveRknn, RdnnAlgorithm, Sft, TplAlgorithm};
use rknn_core::kernel::{self, Backend};
use rknn_core::{Dataset, Euclidean, PointId};
use rknn_index::{CoverTree, DynamicIndex, KnnIndex, LinearScan};
use rknn_lid::{GpEstimator, HillEstimator, IdEstimator, TakensEstimator, TwoNnEstimator};
use rknn_rdt::algorithm::{
    run_algorithm_batch, AlgorithmAnswer, AlgorithmOutcome, RdtAlgorithm, RknnAlgorithm,
};
use rknn_rdt::{MaintainedStream, RdtParams, RdtVariant};
use rknn_serve::{
    advance_snapshot, ChurnOp, Engine, EngineConfig, FaultPlan, QueryRequest, Snapshot,
};
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resolves the `--kernel` flag into a printable `kernel <backend>`
/// fragment for output headers.
///
/// `--kernel` pins the SIMD backend process-wide (first selection wins, as
/// with `RKNN_KERNEL`; `auto` leaves the default dispatch). Without the flag
/// the ambient selection applies, so env-var workflows keep working
/// unchanged.
fn kernel_selection(args: &Args) -> Result<String, String> {
    let ops = match args.get("kernel") {
        Some("auto") | None => kernel::selected(),
        Some(name) => {
            let b = Backend::parse(name)
                .ok_or_else(|| format!("unknown kernel backend '{name}' (scalar|avx2|auto)"))?;
            kernel::pin_backend(b)
        }
    };
    Ok(format!("kernel {}", ops.backend().name()))
}

/// The options [`load_dataset`] reads, accepted by every command that
/// takes a dataset.
const DATA: &[&str] = &["input", "data", "limit", "dims"];

/// The options [`kernel_selection`] and [`Substrate::build`] (or a
/// command's own substrate switch) read.
const INDEX: &[&str] = &["kernel", "substrate"];

/// Loads the dataset named by `--input` (or its alias `--data`), honoring
/// `--limit N` (keep the first N rows while reading — large files are never
/// materialized whole) and `--dims D` (keep the leading D coordinates).
fn load_dataset(args: &Args) -> Result<Arc<Dataset>, String> {
    let path = args
        .get("input")
        .or_else(|| args.get("data"))
        .ok_or_else(|| "missing required option --input (alias: --data)".to_string())?;
    let mut opts = rknn_data::LoadOptions::all();
    if let Some(v) = args.get("limit") {
        let limit: usize = v
            .parse()
            .map_err(|_| format!("cannot parse --limit value '{v}'"))?;
        if limit == 0 {
            return Err("--limit must be positive".into());
        }
        opts = opts.with_limit(limit);
    }
    if let Some(v) = args.get("dims") {
        let dims: usize = v
            .parse()
            .map_err(|_| format!("cannot parse --dims value '{v}'"))?;
        if dims == 0 {
            return Err("--dims must be positive".into());
        }
        opts = opts.with_dims(dims);
    }
    let ds = rknn_data::load_with(Path::new(path), &opts).map_err(|e| format!("{path}: {e}"))?;
    if ds.is_empty() {
        return Err(format!("{path}: dataset is empty"));
    }
    Ok(ds.into_shared())
}

/// `gen`: write a synthetic dataset to disk.
pub fn gen(args: &Args) -> Result<(), String> {
    args.accept(
        &["kind", "n", "seed", "out", "dim", "clusters", "sigma"],
        &[],
    )?;
    let kind = args.require("kind")?;
    let n: usize = args.get_parsed("n", 10_000)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let out = args.require("out")?;
    let ds = match kind {
        "sequoia" => rknn_data::sequoia_like(n, seed),
        "aloi" => rknn_data::aloi_like(n, seed),
        "fct" => rknn_data::fct_like(n, seed),
        "mnist" => rknn_data::mnist_like(n, seed),
        "imagenet" => {
            let dim: usize = args.get_parsed("dim", 512)?;
            rknn_data::imagenet_like(n, dim, seed)
        }
        "uniform" => {
            let dim: usize = args.get_parsed("dim", 8)?;
            rknn_data::uniform_cube(n, dim, seed)
        }
        "blobs" => {
            let dim: usize = args.get_parsed("dim", 8)?;
            let clusters: usize = args.get_parsed("clusters", 10)?;
            let sigma: f64 = args.get_parsed("sigma", 0.5)?;
            rknn_data::gaussian_blobs(n, dim, clusters, sigma, seed)
        }
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    rknn_data::save(&ds, Path::new(out)).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {} points × {} dims to {}", ds.len(), ds.dim(), out);
    Ok(())
}

/// `estimate`: run all intrinsic-dimensionality estimators.
pub fn estimate(args: &Args) -> Result<(), String> {
    args.accept(DATA, &[])?;
    let ds = load_dataset(args)?;
    println!("dataset: {} points × {} dims", ds.len(), ds.dim());
    println!(
        "{:<8} {:>9} {:>10} {:>9}",
        "method", "estimate", "samples", "time_s"
    );
    let estimators: Vec<Box<dyn IdEstimator>> = vec![
        Box::new(HillEstimator::new()),
        Box::new(GpEstimator::new()),
        Box::new(TakensEstimator::new()),
        Box::new(TwoNnEstimator::new()),
    ];
    for est in estimators {
        let r = est.estimate(&ds, &Euclidean);
        println!(
            "{:<8} {:>9.3} {:>10} {:>9.3}",
            est.name(),
            r.id,
            r.samples,
            r.elapsed.as_secs_f64()
        );
    }
    println!("\nsuggestion: use the GP or Takens value as RDT's scale parameter t (§6)");
    Ok(())
}

enum Substrate {
    Cover(CoverTree<Euclidean>),
    Linear(LinearScan<Euclidean>),
}

impl Substrate {
    fn build(args: &Args, ds: Arc<Dataset>) -> Result<(Self, f64), String> {
        let name = args
            .get("substrate")
            .unwrap_or(if ds.dim() > 100 { "linear" } else { "cover" });
        let start = Instant::now();
        let sub = match name {
            "cover" => Substrate::Cover(CoverTree::build(ds, Euclidean)),
            "linear" => Substrate::Linear(LinearScan::build(ds, Euclidean)),
            other => return Err(format!("unknown substrate '{other}' (cover|linear)")),
        };
        Ok((sub, start.elapsed().as_secs_f64() * 1e3))
    }

    fn as_index(&self) -> &dyn KnnIndex<Euclidean> {
        match self {
            Substrate::Cover(t) => t,
            Substrate::Linear(t) => t,
        }
    }
}

/// The shared forward-index type every CLI method dispatches against.
type DynIndex<'a> = dyn KnnIndex<Euclidean> + 'a;

/// Prepares an algorithm and answers the single query through the
/// algorithm-generic batch driver — the same lifecycle and plumbing every
/// method runs in the experiments.
fn run_unified<'a, A>(
    mut algo: A,
    index: &'a DynIndex<'a>,
    q: PointId,
) -> (AlgorithmOutcome<A::Answer>, f64, f64)
where
    A: RknnAlgorithm<Euclidean, DynIndex<'a>>,
{
    let start = Instant::now();
    algo.prepare(index);
    let prepare_ms = start.elapsed().as_secs_f64() * 1e3;
    let out = run_algorithm_batch(&algo, index, &[q], 1);
    let query_ms = out.elapsed.as_secs_f64() * 1e3;
    (out, prepare_ms, query_ms)
}

/// `query`: one reverse-kNN query, dispatched through the unified
/// [`RknnAlgorithm`] lifecycle (prepare → worker → query) for every method.
pub fn query(args: &Args) -> Result<(), String> {
    let own = ["q", "k", "method", "t", "safety", "alpha", "kmax"];
    args.accept(&[DATA, INDEX, &own].concat(), &["adaptive"])?;
    let ds = load_dataset(args)?;
    let q: usize = args.get_parsed("q", 0)?;
    if q >= ds.len() {
        return Err(format!("query id {q} out of range (n = {})", ds.len()));
    }
    let k: usize = args.get_parsed("k", 10)?;
    if k == 0 {
        return Err("k must be positive".into());
    }
    let method = args.get("method").unwrap_or("rdt+");
    let kernel_header = kernel_selection(args)?;
    let (sub, build_ms) = Substrate::build(args, ds.clone())?;
    let index = sub.as_index();
    let (ids, note, prepare_ms, query_ms) = match method {
        "rdt" | "rdt+" => {
            let algo = if args.has_flag("adaptive") {
                let safety: f64 = args.get_positive("safety", 2.0)?;
                RdtAlgorithm::adaptive(k, safety, 1.0).with_variant(if method == "rdt+" {
                    RdtVariant::Plus
                } else {
                    RdtVariant::Plain
                })
            } else {
                let t: f64 = args.get_positive("t", 4.0)?;
                let params = RdtParams::new(k, t);
                if method == "rdt+" {
                    RdtAlgorithm::plus(params)
                } else {
                    RdtAlgorithm::new(params)
                }
            };
            let (out, prepare_ms, query_ms) = run_unified(algo, index, q);
            let ans = &out.answers[0];
            let note = format!(
                "retrieved {} candidates, {} lazy accepts, {} lazy rejects, {} verified, \
                 {} distance computations",
                ans.stats.retrieved,
                ans.stats.lazy_accepts,
                ans.stats.lazy_rejects + ans.stats.excluded,
                ans.stats.verified,
                ans.stats.total_dist_comps()
            );
            (ans.ids(), note, prepare_ms, query_ms)
        }
        "sft" => {
            let alpha: f64 = args.get_parsed("alpha", 4.0)?;
            let (out, prepare_ms, query_ms) = run_unified(Sft::new(k, alpha), index, q);
            let ans = &out.answers[0];
            let note = format!("{} distance computations", ans.work().dist_computations);
            (ans.ids(), note, prepare_ms, query_ms)
        }
        "naive" => {
            let (out, prepare_ms, query_ms) = run_unified(NaiveRknn::new(k), index, q);
            let ans = &out.answers[0];
            let note = format!(
                "{} distance computations (exact)",
                ans.work().dist_computations
            );
            (ans.ids(), note, prepare_ms, query_ms)
        }
        "tpl" => {
            let algo = TplAlgorithm::new(ds.clone(), Euclidean, k);
            let (out, prepare_ms, query_ms) = run_unified(algo, index, q);
            let ans = &out.answers[0];
            let note = format!(
                "{} distance computations (exact; own R-tree built in prepare)",
                ans.work().dist_computations
            );
            (ans.ids(), note, prepare_ms, query_ms)
        }
        "mrknncop" => {
            let k_max: usize = args.get_parsed("kmax", k.max(10))?;
            if k_max < k {
                return Err(format!("kmax {k_max} must be >= k {k}"));
            }
            let algo = MrknncopAlgorithm::new(ds.clone(), Euclidean, k, k_max);
            let (out, prepare_ms, query_ms) = run_unified(algo, index, q);
            let ans = &out.answers[0];
            let note = format!(
                "{} distance computations (exact for any k <= {k_max}; bound lines \
                 fitted in prepare)",
                ans.work().dist_computations
            );
            (ans.ids(), note, prepare_ms, query_ms)
        }
        "rdnn" => {
            let algo = RdnnAlgorithm::new(ds.clone(), Euclidean, k);
            let (out, prepare_ms, query_ms) = run_unified(algo, index, q);
            let ans = &out.answers[0];
            let note = format!(
                "{} distance computations (exact for k = {k} only; kNN pass in prepare)",
                ans.work().dist_computations
            );
            (ans.ids(), note, prepare_ms, query_ms)
        }
        other => {
            return Err(format!(
                "unknown method '{other}' (rdt+|rdt|sft|naive|tpl|mrknncop|rdnn)"
            ))
        }
    };
    println!(
        "RkNN({q}, {k}) via {method} [{} · {kernel_header}]:",
        index.name()
    );
    println!("  {} reverse neighbors: {:?}", ids.len(), ids);
    println!("  {note}");
    println!("  build {build_ms:.2} ms, prepare {prepare_ms:.2} ms, query {query_ms:.3} ms");
    Ok(())
}

/// Prepares one algorithm and times the sampled query batch through the
/// unified driver: (prepare_ms, batch_ms, dist_comps, result_members).
fn bench_one<'a, A>(
    mut algo: A,
    index: &'a DynIndex<'a>,
    qs: &[PointId],
    threads: usize,
) -> (f64, f64, u64, usize)
where
    A: RknnAlgorithm<Euclidean, DynIndex<'a>>,
{
    let start = Instant::now();
    algo.prepare(index);
    let prepare_ms = start.elapsed().as_secs_f64() * 1e3;
    let out = run_algorithm_batch(&algo, index, qs, threads);
    (
        prepare_ms,
        out.elapsed.as_secs_f64() * 1e3,
        out.stats.search.dist_computations,
        out.stats.result_members,
    )
}

/// `bench`: per-algorithm timing over a sampled query batch on a dataset
/// file — the CLI face of the snapshot's `algorithms` section, pointable
/// at real `.fvecs`/`.idx` data via `--data --limit --dims`.
pub fn bench(args: &Args) -> Result<(), String> {
    let own = [
        "k", "t", "alpha", "kmax", "queries", "seed", "threads", "methods",
    ];
    args.accept(&[DATA, INDEX, &own].concat(), &[])?;
    let ds = load_dataset(args)?;
    let k: usize = args.get_parsed("k", 10)?;
    if k == 0 {
        return Err("k must be positive".into());
    }
    if ds.len() <= k + 2 {
        return Err(format!("dataset too small for k = {k} (n = {})", ds.len()));
    }
    let t: f64 = args.get_positive("t", 4.0)?;
    let alpha: f64 = args.get_parsed("alpha", 4.0)?;
    let k_max: usize = args.get_parsed("kmax", k)?;
    if k_max < k {
        return Err(format!("kmax {k_max} must be >= k {k}"));
    }
    let queries: usize = args.get_parsed("queries", 32)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    // `0` (the default) defers to RKNN_THREADS, then to the CPU count, so
    // thread-scaling runs are reproducible on any host without editing the
    // command line.
    let threads: usize = args.get_parsed("threads", 0)?;
    let methods = args.get("methods").unwrap_or("rdt,rdt+,sft,mrknncop,rdnn");
    let kernel_header = kernel_selection(args)?;
    let (sub, build_ms) = Substrate::build(args, ds.clone())?;
    let index = sub.as_index();
    let qs = rknn_data::sample_queries(ds.len(), queries.min(ds.len()), seed);
    println!(
        "bench: {} points × {} dims, {} sampled queries, k = {k} [{} · {kernel_header}]",
        ds.len(),
        ds.dim(),
        qs.len(),
        index.name()
    );
    let effective = rknn_rdt::algorithm::requested_threads(threads).clamp(1, qs.len().max(1));
    println!(
        "  substrate build {build_ms:.2} ms · threads requested {threads}, effective {effective}"
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12} {:>9}",
        "method", "prepare_ms", "batch_ms", "ms/query", "dist/query", "members"
    );
    for m in methods.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (prepare_ms, batch_ms, dist, members) = match m {
            "rdt" => bench_one(RdtAlgorithm::new(RdtParams::new(k, t)), index, &qs, threads),
            "rdt+" => bench_one(
                RdtAlgorithm::plus(RdtParams::new(k, t)),
                index,
                &qs,
                threads,
            ),
            "sft" => bench_one(Sft::new(k, alpha), index, &qs, threads),
            "naive" => bench_one(NaiveRknn::new(k), index, &qs, threads),
            "tpl" => bench_one(
                TplAlgorithm::new(ds.clone(), Euclidean, k),
                index,
                &qs,
                threads,
            ),
            "mrknncop" => bench_one(
                MrknncopAlgorithm::new(ds.clone(), Euclidean, k, k_max),
                index,
                &qs,
                threads,
            ),
            "rdnn" => bench_one(
                RdnnAlgorithm::new(ds.clone(), Euclidean, k),
                index,
                &qs,
                threads,
            ),
            other => {
                return Err(format!(
                    "unknown method '{other}' in --methods \
                     (rdt|rdt+|sft|naive|tpl|mrknncop|rdnn)"
                ))
            }
        };
        println!(
            "{:<10} {:>12.2} {:>10.2} {:>10.3} {:>12.1} {:>9}",
            m,
            prepare_ms,
            batch_ms,
            batch_ms / qs.len().max(1) as f64,
            dist as f64 / qs.len().max(1) as f64,
            members
        );
    }
    Ok(())
}

/// `churn`: a mixed insert/delete workload through the maintained
/// all-points stream ([`MaintainedStream`]) on a dynamic substrate, priced
/// per update against rebuilding the whole answer table from scratch.
pub fn churn(args: &Args) -> Result<(), String> {
    let own = ["k", "t", "updates", "seed", "threads"];
    args.accept(&[DATA, INDEX, &own].concat(), &[])?;
    let ds = load_dataset(args)?;
    let k: usize = args.get_parsed("k", 10)?;
    if k == 0 {
        return Err("k must be positive".into());
    }
    if ds.len() <= k + 2 {
        return Err(format!("dataset too small for k = {k} (n = {})", ds.len()));
    }
    let t: f64 = args.get_positive("t", 50.0)?;
    let updates: usize = args.get_parsed("updates", 60)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let threads: usize = args.get_parsed("threads", 2)?;
    let kernel_header = kernel_selection(args)?;
    println!("churn [{kernel_header}]");
    match args.get("substrate").unwrap_or("cover") {
        "cover" => churn_on(
            CoverTree::build(ds, Euclidean),
            k,
            t,
            updates,
            seed,
            threads,
        ),
        "linear" => churn_on(
            LinearScan::build(ds, Euclidean),
            k,
            t,
            updates,
            seed,
            threads,
        ),
        other => Err(format!("unknown substrate '{other}' (cover|linear)")),
    }
}

/// Runs the churn workload on one dynamic substrate: inserts draw uniform
/// points from the dataset's bounding box, every third update deletes a
/// random live point, and the maintained table is compared member-for-
/// member against a rebuild at the end.
fn churn_on<I>(
    mut index: I,
    k: usize,
    t: f64,
    updates: usize,
    seed: u64,
    threads: usize,
) -> Result<(), String>
where
    I: DynamicIndex<Euclidean> + Sync,
{
    let n0 = index.num_points();
    let dim = index.point(0).len();
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for id in 0..n0 {
        for (j, &c) in index.point(id).iter().enumerate() {
            lo[j] = lo[j].min(c);
            hi[j] = hi[j].max(c);
        }
    }

    println!("seeding all-points RkNN table over {n0} points (k = {k}, t = {t})...");
    let start = Instant::now();
    let mut stream =
        MaintainedStream::new(RdtAlgorithm::new(RdtParams::new(k, t)), &index, threads);
    println!("  seeded in {:.2} ms", start.elapsed().as_secs_f64() * 1e3);

    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut live: Vec<PointId> = (0..n0).collect();
    let (mut inserts, mut deletes) = (0usize, 0usize);
    let (mut insert_ms, mut delete_ms) = (0.0f64, 0.0f64);
    let mut recomputed = 0usize;
    for step in 0..updates {
        if step % 3 == 2 && live.len() > k + 2 {
            let victim = live.swap_remove(next() as usize % live.len());
            let rep = stream
                .remove(&mut index, victim)
                .ok_or_else(|| format!("point {victim} vanished from the stream"))?;
            deletes += 1;
            delete_ms += rep.elapsed.as_secs_f64() * 1e3;
            recomputed += rep.recomputed;
        } else {
            let point: Vec<f64> = (0..dim)
                .map(|j| {
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    lo[j] + u * (hi[j] - lo[j])
                })
                .collect();
            let (id, rep) = stream
                .insert(&mut index, &point)
                .map_err(|e| e.to_string())?;
            live.push(id);
            inserts += 1;
            insert_ms += rep.elapsed.as_secs_f64() * 1e3;
            recomputed += rep.recomputed;
        }
    }
    println!("processed {inserts} inserts + {deletes} deletes:");
    println!(
        "  mean insert {:.3} ms, mean delete {:.3} ms, mean answers recomputed per update {:.1}",
        insert_ms / inserts.max(1) as f64,
        delete_ms / deletes.max(1) as f64,
        recomputed as f64 / updates.max(1) as f64
    );
    println!(
        "  d_k-cache maintenance: {:.3} ms total",
        RknnAlgorithm::<Euclidean, I>::maintenance_time(stream.algo()).as_secs_f64() * 1e3
    );

    // The alternative: rebuild the whole answer table from scratch.
    let start = Instant::now();
    let mut fresh = RdtAlgorithm::new(RdtParams::new(k, t));
    fresh.prepare(&index);
    let mut queries: Vec<PointId> = live.clone();
    queries.sort_unstable();
    let rebuilt = run_algorithm_batch(&fresh, &index, &queries, threads);
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
    let mean_update_ms = (insert_ms + delete_ms) / updates.max(1) as f64;
    println!(
        "  rebuild-from-scratch: {rebuild_ms:.2} ms ({:.3}x per maintained update)",
        mean_update_ms / rebuild_ms.max(1e-9)
    );

    let mismatched = queries
        .iter()
        .zip(&rebuilt.answers)
        .filter(|(&q, want)| {
            stream
                .answer(q)
                .map(|got| got.ids() != want.ids())
                .unwrap_or(true)
        })
        .count();
    if mismatched == 0 {
        println!(
            "  maintained table identical to the rebuild ({} queries)",
            queries.len()
        );
    } else {
        println!(
            "  maintained table differs from the rebuild on {mismatched}/{} queries \
             (expected only at heuristic t; t >= 50 is exact)",
            queries.len()
        );
    }
    Ok(())
}

/// `serve`: run the serving engine as a long-lived process driven by a
/// line protocol on stdin — queries answer through the sharded executor,
/// inserts/removes build a successor snapshot off to the side and publish
/// it epoch-style while queries keep flowing.
pub fn serve(args: &Args) -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    serve_io(args, stdin.lock(), &mut stdout)
}

/// [`serve`] against caller-supplied streams, so tests (and the CI smoke)
/// can drive the REPL without a terminal.
pub fn serve_io<R: BufRead, W: Write>(args: &Args, input: R, out: &mut W) -> Result<(), String> {
    let own = [
        "k",
        "t",
        "threads",
        "queue-cap",
        "prewarm",
        "deadline-ms",
        "chaos",
    ];
    args.accept(&[DATA, INDEX, &own].concat(), &[])?;
    let ds = load_dataset(args)?;
    let k: usize = args.get_parsed("k", 10)?;
    if k == 0 {
        return Err("k must be positive".into());
    }
    if ds.len() <= k + 2 {
        return Err(format!("dataset too small for k = {k} (n = {})", ds.len()));
    }
    let t: f64 = args.get_positive("t", 4.0)?;
    let workers: usize = args.get_parsed("threads", 0)?;
    let queue_capacity: usize = args.get_parsed("queue-cap", 128)?;
    if queue_capacity == 0 {
        return Err("--queue-cap must be positive".into());
    }
    let prewarm: usize = args.get_parsed("prewarm", 0)?;
    // Per-query deadline for REPL queries (0 = none): queued or in-flight
    // past this budget resolves as a typed `deadline exceeded` error.
    let deadline_ms: u64 = args.get_parsed("deadline-ms", 0)?;
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    // `--chaos SEED` arms a deterministic fault plan against the REPL's own
    // engine: injected panics/delays surface as typed per-query
    // errors while the session keeps serving.
    let faults = match args.get("chaos") {
        None => None,
        Some(v) => {
            let seed: u64 = v.parse().map_err(|_| format!("bad chaos seed '{v}'"))?;
            Some(Arc::new(FaultPlan::scattered(
                seed,
                32,
                3,
                2,
                Duration::from_millis(2),
            )))
        }
    };
    let kernel_header = kernel_selection(args)?;
    match args.get("substrate").unwrap_or("cover") {
        "cover" => serve_on(
            CoverTree::build(ds, Euclidean),
            k,
            t,
            prewarm,
            workers,
            queue_capacity,
            deadline,
            faults,
            &kernel_header,
            input,
            out,
        ),
        "linear" => serve_on(
            LinearScan::build(ds, Euclidean),
            k,
            t,
            prewarm,
            workers,
            queue_capacity,
            deadline,
            faults,
            &kernel_header,
            input,
            out,
        ),
        other => Err(format!("unknown substrate '{other}' (cover|linear)")),
    }
}

/// The REPL proper, generic over the dynamic substrate the engine serves
/// from.
#[allow(clippy::too_many_arguments)]
fn serve_on<I, R, W>(
    index: I,
    k: usize,
    t: f64,
    prewarm: usize,
    workers: usize,
    queue_capacity: usize,
    deadline: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    kernel_header: &str,
    input: R,
    out: &mut W,
) -> Result<(), String>
where
    I: DynamicIndex<Euclidean> + Clone + 'static,
    R: BufRead,
    W: Write,
{
    let oops = |e: std::io::Error| format!("write output: {e}");
    let n0 = index.num_points();
    let dim = index.point(0).len();
    let start = Instant::now();
    let snapshot = Snapshot::prepare(
        0,
        index,
        RdtAlgorithm::new(RdtParams::new(k, t)).with_prewarm(prewarm),
    );
    let prepare_ms = start.elapsed().as_secs_f64() * 1e3;
    let engine = Engine::new(
        snapshot,
        EngineConfig {
            workers,
            queue_capacity,
            faults,
        },
    );
    // Attaches the session-wide deadline (if any) to a query request.
    let with_deadline = |request: QueryRequest| match deadline {
        Some(d) => request.with_timeout(d),
        None => request,
    };
    // Liveness bookkeeping for friendly errors: ids the REPL may query.
    // The slot range grows with inserts; tombstoned slots stay dead.
    let mut live = vec![true; n0];
    writeln!(
        out,
        "serving {n0} points × {dim} dims, k = {k}, t = {t} \
         [{kernel_header}] — {} workers, queue capacity {}, prepare {prepare_ms:.2} ms",
        engine.workers(),
        engine.queue_capacity(),
    )
    .map_err(oops)?;
    writeln!(
        out,
        "commands: q <id> | qc <c1> .. <c{dim}> | insert <c1> .. <c{dim}> | \
         remove <id> | stats | quit"
    )
    .map_err(oops)?;
    for line in input.lines() {
        let line = line.map_err(|e| format!("read input: {e}"))?;
        let mut parts = line.split_whitespace();
        let verb = match parts.next() {
            Some(v) => v,
            None => continue,
        };
        if matches!(verb, "quit" | "exit") {
            break;
        }
        // REPL errors report and continue; only I/O failures exit.
        let outcome: Result<(), String> = match verb {
            "q" => parts
                .next()
                .ok_or_else(|| "usage: q <id>".to_string())
                .and_then(|v| v.parse::<usize>().map_err(|_| format!("bad id '{v}'")))
                .and_then(|id| {
                    if !live.get(id).copied().unwrap_or(false) {
                        return Err(format!("id {id} is not a live point"));
                    }
                    let ticket = engine
                        .submit(with_deadline(QueryRequest::point(id)))
                        .map_err(|e| e.to_string())?;
                    let r = ticket.wait().map_err(|e| e.to_string())?;
                    let ids: Vec<PointId> = r.neighbors.iter().map(|n| n.id).collect();
                    writeln!(
                        out,
                        "q {id} · epoch {} · {} reverse neighbors {ids:?} \
                         ({:.3} ms service, {:.3} ms total, worker {})",
                        r.epoch,
                        ids.len(),
                        r.service().as_secs_f64() * 1e3,
                        r.total().as_secs_f64() * 1e3,
                        r.worker,
                    )
                    .map_err(oops)
                }),
            "qc" => parts
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| format!("bad coordinate '{v}'"))
                })
                .collect::<Result<Vec<f64>, String>>()
                .and_then(|coords| {
                    // No local shape check: the engine validates at submit,
                    // so malformed coordinates exercise the typed
                    // `invalid query` path end to end.
                    let ticket = engine
                        .submit(with_deadline(QueryRequest::coords(coords)))
                        .map_err(|e| e.to_string())?;
                    let r = ticket.wait().map_err(|e| e.to_string())?;
                    let ids: Vec<PointId> = r.neighbors.iter().map(|n| n.id).collect();
                    writeln!(
                        out,
                        "qc · epoch {} · {} reverse neighbors {ids:?} \
                         ({:.3} ms service, worker {})",
                        r.epoch,
                        ids.len(),
                        r.service().as_secs_f64() * 1e3,
                        r.worker,
                    )
                    .map_err(oops)
                }),
            "insert" => parts
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| format!("bad coordinate '{v}'"))
                })
                .collect::<Result<Vec<f64>, String>>()
                .and_then(|coords| {
                    if coords.len() != dim {
                        return Err(format!("expected {dim} coordinates, got {}", coords.len()));
                    }
                    let (next, report) =
                        advance_snapshot(&engine.snapshot(), &[ChurnOp::Insert(coords)])
                            .map_err(|e| e.to_string())?;
                    let epoch = engine.publish(next);
                    let id = report.inserted[0];
                    if live.len() <= id {
                        live.resize(id + 1, false);
                    }
                    live[id] = true;
                    writeln!(
                        out,
                        "inserted id {id} · epoch {epoch} published \
                         ({:.2} ms build, {} maintenance dist comps)",
                        report.build_time.as_secs_f64() * 1e3,
                        report.maintenance.dist_computations,
                    )
                    .map_err(oops)
                }),
            "remove" => parts
                .next()
                .ok_or_else(|| "usage: remove <id>".to_string())
                .and_then(|v| v.parse::<usize>().map_err(|_| format!("bad id '{v}'")))
                .and_then(|id| {
                    if !live.get(id).copied().unwrap_or(false) {
                        return Err(format!("id {id} is not a live point"));
                    }
                    let (next, report) =
                        advance_snapshot(&engine.snapshot(), &[ChurnOp::Remove(id)])
                            .map_err(|e| e.to_string())?;
                    let epoch = engine.publish(next);
                    live[id] = false;
                    writeln!(
                        out,
                        "removed id {id} · epoch {epoch} published \
                         ({:.2} ms build, {} maintenance dist comps)",
                        report.build_time.as_secs_f64() * 1e3,
                        report.maintenance.dist_computations,
                    )
                    .map_err(oops)
                }),
            "stats" => {
                let s = engine.stats();
                writeln!(
                    out,
                    "epoch {} · submitted {} · completed {} · failed {} · rejected {} · \
                     stolen {} · swaps {} · queued {}",
                    s.epoch,
                    s.submitted,
                    s.completed,
                    s.failed,
                    s.rejected,
                    s.stolen,
                    s.swaps,
                    s.queued,
                )
                .map_err(oops)
            }
            "help" => writeln!(
                out,
                "commands: q <id> | qc <c1> .. <c{dim}> | insert <c1> .. <c{dim}> | \
                 remove <id> | stats | quit"
            )
            .map_err(oops),
            other => Err(format!("unknown command '{other}' (try 'help')")),
        };
        if let Err(e) = outcome {
            writeln!(out, "error: {e}").map_err(oops)?;
        }
    }
    let stats = engine.shutdown();
    writeln!(
        out,
        "engine closed: {} completed, {} failed, {} rejected, {} epoch swaps",
        stats.completed, stats.failed, stats.rejected, stats.swaps
    )
    .map_err(oops)?;
    Ok(())
}

/// `hubness`: distribution of reverse-neighbor counts (§1's hubness
/// application \[46\]).
pub fn hubness(args: &Args) -> Result<(), String> {
    args.accept(&[DATA, INDEX, &["k", "t"]].concat(), &[])?;
    let ds = load_dataset(args)?;
    let k: usize = args.get_parsed("k", 10)?;
    if k == 0 {
        return Err("k must be positive".into());
    }
    let t: f64 = args.get_positive("t", 8.0)?;
    let kernel_header = kernel_selection(args)?;
    let (sub, _) = Substrate::build(args, ds.clone())?;
    let index = sub.as_index();
    println!("hubness [{} · {kernel_header}]", index.name());
    let rdt = RdtAlgorithm::plus(RdtParams::new(k, t));
    let mut counts: Vec<usize> = (0..ds.len())
        .map(|q| rdt.answer(index, q).result.len())
        .collect();
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let sd = var.sqrt();
    let skew = if sd > 0.0 {
        counts
            .iter()
            .map(|&c| ((c as f64 - mean) / sd).powi(3))
            .sum::<f64>()
            / n
    } else {
        0.0
    };
    counts.sort_unstable();
    let pct = |p: f64| counts[((counts.len() - 1) as f64 * p) as usize];
    println!(
        "reverse-{k}NN count distribution over {} points (t = {t}):",
        ds.len()
    );
    println!("  mean {mean:.2}  sd {sd:.2}  skewness {skew:.2}");
    println!(
        "  min {}  p25 {}  median {}  p75 {}  p99 {}  max {}",
        counts[0],
        pct(0.25),
        pct(0.5),
        pct(0.75),
        pct(0.99),
        counts[counts.len() - 1]
    );
    let antihubs = counts.iter().filter(|&&c| c == 0).count();
    println!("  anti-hubs (count 0): {antihubs}");
    println!("  positive skewness = hubness: a few points dominate many k-NN lists");
    Ok(())
}

/// `info`: dataset summary.
pub fn info(args: &Args) -> Result<(), String> {
    args.accept(DATA, &[])?;
    let ds = load_dataset(args)?;
    println!("points: {}", ds.len());
    println!("dims:   {}", ds.dim());
    let m = ds.dim();
    let mut lo = vec![f64::INFINITY; m];
    let mut hi = vec![f64::NEG_INFINITY; m];
    for (_, p) in ds.iter() {
        for j in 0..m {
            lo[j] = lo[j].min(p[j]);
            hi[j] = hi[j].max(p[j]);
        }
    }
    let extent: f64 = lo.iter().zip(&hi).map(|(l, h)| h - l).sum::<f64>() / m as f64;
    println!("mean per-dimension extent: {extent:.4}");
    let show = m.min(5);
    for j in 0..show {
        println!("  dim {j}: [{:.4}, {:.4}]", lo[j], hi[j]);
    }
    if m > show {
        println!("  … {} more dimensions", m - show);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|x| x.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn gen_estimate_query_roundtrip() {
        let path = tmp("rknn_cli_test.fvb");
        gen(&args(&format!(
            "gen --kind blobs --n 400 --dim 4 --out {path} --seed 3"
        )))
        .unwrap();
        info(&args(&format!("info --input {path}"))).unwrap();
        estimate(&args(&format!("estimate --input {path}"))).unwrap();
        query(&args(&format!("query --input {path} --q 5 --k 5 --t 6"))).unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --adaptive"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --method sft --alpha 4"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --method naive"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --method tpl"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --method mrknncop --kmax 8"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --method rdnn"
        )))
        .unwrap();
        bench(&args(&format!(
            "bench --input {path} --k 3 --queries 8 --methods rdt,rdt+,sft,naive"
        )))
        .unwrap();
        hubness(&args(&format!("hubness --input {path} --k 3 --t 6"))).unwrap();
        churn(&args(&format!(
            "churn --input {path} --k 3 --updates 9 --threads 2"
        )))
        .unwrap();
        churn(&args(&format!(
            "churn --input {path} --k 3 --updates 6 --substrate linear"
        )))
        .unwrap();
        // The backend flag pins (or no-ops, if dispatch already ran) the
        // SIMD backend, and `auto` is accepted as "don't pin".
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --t 6 --substrate linear"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --t 6 --kernel auto"
        )))
        .unwrap();
        query(&args(&format!(
            "query --input {path} --q 5 --k 5 --t 6 --kernel scalar"
        )))
        .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn data_alias_limit_and_dims_slice_interchange_files() {
        let path = tmp("rknn_cli_slice.fvecs");
        gen(&args(&format!(
            "gen --kind blobs --n 200 --dim 6 --out {path} --seed 9"
        )))
        .unwrap();
        // --data is an alias for --input; --limit/--dims slice on the way in.
        let sliced =
            load_dataset(&args(&format!("info --data {path} --limit 50 --dims 3"))).unwrap();
        assert_eq!((sliced.len(), sliced.dim()), (50, 3));
        let full = load_dataset(&args(&format!("info --input {path}"))).unwrap();
        assert_eq!((full.len(), full.dim()), (200, 6));
        // The slice is a prefix of the full load in both axes.
        for i in 0..sliced.len() {
            assert_eq!(sliced.point(i), &full.point(i)[..3]);
        }
        query(&args(&format!(
            "query --data {path} --limit 50 --dims 3 --q 5 --k 3 --t 6"
        )))
        .unwrap();
        bench(&args(&format!(
            "bench --data {path} --limit 60 --dims 4 --k 3 --queries 8 --methods rdt+"
        )))
        .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_repl_queries_churns_and_swaps_epochs() {
        let path = tmp("rknn_cli_serve.fvb");
        gen(&args(&format!(
            "gen --kind blobs --n 200 --dim 3 --out {path} --seed 5"
        )))
        .unwrap();
        let script = "stats\n\
                      q 5\n\
                      insert 0.5 0.5 0.5\n\
                      q 5\n\
                      remove 7\n\
                      q 200\n\
                      stats\n\
                      help\n\
                      bogus\n\
                      q 7\n\
                      quit\n";
        let mut out = Vec::new();
        serve_io(
            &args(&format!(
                "serve --input {path} --k 4 --t 5 --threads 2 --prewarm 50"
            )),
            script.as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("serving 200 points × 3 dims"), "{text}");
        assert!(
            text.contains("inserted id 200 · epoch 1 published"),
            "{text}"
        );
        assert!(text.contains("removed id 7 · epoch 2 published"), "{text}");
        // The inserted point is queryable in the new epoch.
        assert!(text.contains("q 200 · epoch 2"), "{text}");
        // Removed and unknown inputs get REPL errors, not process exits.
        assert!(text.contains("error: id 7 is not a live point"), "{text}");
        assert!(text.contains("error: unknown command 'bogus'"), "{text}");
        assert!(
            text.contains("engine closed: 3 completed, 0 failed, 0 rejected, 2 epoch swaps"),
            "{text}"
        );
        // Same REPL on the linear substrate.
        let mut out2 = Vec::new();
        serve_io(
            &args(&format!(
                "serve --input {path} --k 4 --substrate linear --threads 1"
            )),
            "q 0\nquit\n".as_bytes(),
            &mut out2,
        )
        .unwrap();
        let text2 = String::from_utf8(out2).unwrap();
        assert!(text2.contains("q 0 · epoch 0"), "{text2}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_repl_types_errors_and_survives_chaos() {
        let path = tmp("rknn_cli_serve_chaos.fvb");
        gen(&args(&format!(
            "gen --kind blobs --n 120 --dim 3 --out {path} --seed 11"
        )))
        .unwrap();
        // Coordinate queries validate at the engine boundary: non-finite
        // values and wrong arity come back as typed `invalid query` errors,
        // well-formed ones answer. `--deadline-ms` attaches a per-query
        // budget generous enough that every answer lands inside it.
        let script = "qc nan 0 0\n\
                      qc 0.1 0.2\n\
                      qc 0.1 0.2 0.3\n\
                      q 4\n\
                      quit\n";
        let mut out = Vec::new();
        serve_io(
            &args(&format!(
                "serve --input {path} --k 3 --substrate linear --threads 1 --deadline-ms 5000"
            )),
            script.as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("error: invalid query: non-finite coordinate"),
            "{text}"
        );
        assert!(
            text.contains("error: invalid query: dimension mismatch: expected 3, got 2"),
            "{text}"
        );
        assert!(text.contains("qc · epoch 0"), "{text}");
        assert!(text.contains("q 4 · epoch 0"), "{text}");
        // Invalid inputs are refused at submit — never admitted, so they
        // count in neither `completed` nor `failed`.
        assert!(
            text.contains("engine closed: 2 completed, 0 failed, 0 rejected, 0 epoch swaps"),
            "{text}"
        );
        // `--chaos` injects seeded panics/delays: faulted queries report
        // typed errors, each worker serves on after its panics, the REPL
        // survives to a clean shutdown.
        let script2: String =
            (0..40).map(|i| format!("q {i}\n")).collect::<String>() + "stats\nquit\n";
        let mut out2 = Vec::new();
        serve_io(
            &args(&format!(
                "serve --input {path} --k 3 --substrate linear --threads 2 --chaos 7"
            )),
            script2.as_bytes(),
            &mut out2,
        )
        .unwrap();
        let text2 = String::from_utf8(out2).unwrap();
        assert!(text2.contains("engine closed:"), "{text2}");
        assert!(!text2.contains("engine closed: 40 completed"), "{text2}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_bad_configs() {
        let path = tmp("rknn_cli_serve_err.fvb");
        gen(&args(&format!(
            "gen --kind uniform --n 30 --dim 2 --out {path}"
        )))
        .unwrap();
        let empty = std::io::empty();
        let mut sink = Vec::new();
        assert!(serve_io(
            &args(&format!("serve --input {path} --k 0")),
            std::io::BufReader::new(empty),
            &mut sink
        )
        .is_err());
        assert!(serve_io(
            &args(&format!("serve --input {path} --k 3 --queue-cap 0")),
            "quit\n".as_bytes(),
            &mut sink
        )
        .is_err());
        assert!(serve_io(
            &args(&format!("serve --input {path} --k 3 --substrate woo")),
            "quit\n".as_bytes(),
            &mut sink
        )
        .is_err());
        assert!(serve_io(
            &args(&format!("serve --input {path} --k 29")),
            "quit\n".as_bytes(),
            &mut sink
        )
        .is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(gen(&args("gen --kind nope --n 10 --out /tmp/x.csv")).is_err());
        assert!(query(&args("query --input /nonexistent.csv --q 0 --k 3")).is_err());
        let path = tmp("rknn_cli_err.csv");
        gen(&args(&format!(
            "gen --kind uniform --n 20 --dim 2 --out {path}"
        )))
        .unwrap();
        assert!(query(&args(&format!("query --input {path} --q 999 --k 3"))).is_err());
        assert!(query(&args(&format!("query --input {path} --q 0 --k 0"))).is_err());
        assert!(query(&args(&format!(
            "query --input {path} --q 0 --k 3 --method woo"
        )))
        .is_err());
        assert!(query(&args(&format!(
            "query --input {path} --q 0 --k 5 --method mrknncop --kmax 3"
        )))
        .is_err());
        assert!(query(&args(&format!(
            "query --input {path} --q 0 --k 3 --substrate woo"
        )))
        .is_err());
        assert!(churn(&args(&format!(
            "churn --input {path} --k 3 --substrate woo"
        )))
        .is_err());
        assert!(churn(&args(&format!("churn --input {path} --k 19"))).is_err());
        assert!(query(&args(&format!(
            "query --input {path} --q 0 --k 3 --kernel woo"
        )))
        .is_err());
        assert!(query(&args(&format!("query --data {path} --q 0 --k 3 --limit 0"))).is_err());
        assert!(query(&args(&format!("query --data {path} --q 0 --k 3 --dims x"))).is_err());
        assert!(bench(&args(&format!("bench --input {path} --k 3 --methods warp"))).is_err());
        assert!(bench(&args("bench --k 3")).is_err());
        // A scale parameter or safety factor that is not positive and
        // finite is a typed error on every command that takes one.
        let rejects = |result: Result<(), String>, flag: &str| {
            let err = result.expect_err("a bad value must be rejected");
            assert!(err.contains(&format!("--{flag} must be positive")), "{err}");
        };
        rejects(
            query(&args(&format!("query --input {path} --k 3 --t 0"))),
            "t",
        );
        let adaptive = format!("query --input {path} --k 3 --adaptive --safety -3");
        rejects(query(&args(&adaptive)), "safety");
        rejects(
            bench(&args(&format!("bench --input {path} --k 3 --t nan"))),
            "t",
        );
        rejects(
            churn(&args(&format!("churn --input {path} --k 3 --t inf"))),
            "t",
        );
        let serve_args = args(&format!("serve --input {path} --k 3 --t -1"));
        rejects(
            serve_io(&serve_args, "quit\n".as_bytes(), &mut Vec::new()),
            "t",
        );
        rejects(
            hubness(&args(&format!("hubness --input {path} --t nan"))),
            "t",
        );
        assert!(hubness(&args(&format!("hubness --input {path} --k 0"))).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_command_refuses_options_it_does_not_declare() {
        let path = tmp("rknn_cli_unknown.csv");
        gen(&args(&format!(
            "gen --kind uniform --n 20 --dim 2 --out {path}"
        )))
        .unwrap();
        let refused = |result: Result<(), String>, want: &str| {
            assert_eq!(result, Err(want.to_string()));
        };
        // A misspelled --substrate and the retired --tier: neither may
        // silently fall back to a default.
        refused(
            query(&args(&format!(
                "query --input {path} --q 3 --k 5 --substrat linear --tier fast"
            ))),
            "unknown option --substrat for 'query'",
        );
        refused(
            query(&args(&format!("query --input {path} --k 3 --tier fast"))),
            "unknown option --tier for 'query'",
        );
        refused(
            gen(&args(&format!(
                "gen --kind uniform --out {path} --n 9 --dims 3"
            ))),
            "unknown option --dims for 'gen'",
        );
        refused(
            info(&args(&format!("info --input {path} --k 3"))),
            "unknown option --k for 'info'",
        );
        refused(
            estimate(&args(&format!("estimate --input {path} --t 3"))),
            "unknown option --t for 'estimate'",
        );
        refused(
            bench(&args(&format!("bench --input {path} --k 3 --method rdt"))),
            "unknown option --method for 'bench'",
        );
        refused(
            churn(&args(&format!("churn --input {path} --k 3 --queries 4"))),
            "unknown option --queries for 'churn'",
        );
        refused(
            hubness(&args(&format!("hubness --input {path} --adaptive"))),
            "unknown option --adaptive for 'hubness'",
        );
        refused(
            serve_io(
                &args(&format!("serve --input {path} --k 3 --queue-capacity 8")),
                "quit\n".as_bytes(),
                &mut Vec::new(),
            ),
            "unknown option --queue-capacity for 'serve'",
        );
        refused(
            query(&args(&format!("query --input {path} --k 3 --adaptive 2"))),
            "--adaptive takes no value, got '2'",
        );
        let _ = std::fs::remove_file(&path);
    }
}
