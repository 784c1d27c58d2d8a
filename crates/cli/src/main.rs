//! `rknn-cli` — reverse k-nearest neighbor search from the command line.
//!
//! ```text
//! rknn-cli gen      --kind sequoia --n 10000 --out pts.fvb [--seed 1] [--dim 64]
//! rknn-cli estimate --input pts.fvb
//! rknn-cli query    --data base.fvecs --q 123 --k 10 [--t 5 | --adaptive]
//!                   [--limit N] [--dims D]
//!                   [--method rdt+|rdt|sft|naive|tpl|mrknncop|rdnn]
//!                   [--kernel scalar|avx2|auto]
//! rknn-cli bench    --data base.fvecs --k 10 [--limit N] [--dims D]
//!                   [--methods rdt,rdt+,sft,...] [--queries Q] [--threads T]
//! rknn-cli hubness  --input pts.fvb --k 10 [--t 8] [--kernel ...]
//! rknn-cli churn    --input pts.fvb --k 10 [--updates 60] [--t 50] [--kernel ...]
//! rknn-cli serve    --input pts.fvb --k 10 [--t 5] [--threads T] [--queue-cap C]
//! rknn-cli info     --input pts.fvb
//! ```
//!
//! Datasets are CSV (one point per line), the `.fvb` binary format of
//! `rknn-data`, or the interchange formats `.fvecs`/`.ivecs`/`.bvecs`/`.idx`
//! (texmex and MNIST conventions). `--input` and `--data` are aliases;
//! `--limit N` keeps the first N rows while reading and `--dims D` keeps the
//! leading D coordinates, so a million-row file slices down without ever
//! being materialized whole.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
rknn-cli — reverse k-nearest neighbor search by dimensional testing

USAGE:
  rknn-cli gen      --kind <sequoia|aloi|fct|mnist|imagenet|uniform|blobs>
                    --n <points> --out <file[.csv|.fvb]> [--seed S] [--dim D]
  rknn-cli estimate --input <file>            intrinsic-dimensionality estimates
  rknn-cli query    --input <file> --q <id> --k <rank>
                    [--t <scale> | --adaptive]
                    [--method rdt+|rdt|sft|naive|tpl|mrknncop|rdnn]
                    [--substrate cover|linear] [--alpha A] [--kmax K]
                    [--kernel scalar|avx2|auto]
  rknn-cli bench    --input <file> --k <rank> [--t <scale>] [--queries Q]
                    [--methods rdt,rdt+,sft,naive,tpl,mrknncop,rdnn]
                    [--threads T] [--seed S] [--substrate cover|linear]
                    [--alpha A] [--kmax K] [--kernel ..]
                    per-algorithm prepare/batch timing on a dataset file
  rknn-cli hubness  --input <file> --k <rank> [--t <scale>] [--kernel ..]
  rknn-cli churn    --input <file> --k <rank> [--updates U] [--t <scale>]
                    [--substrate cover|linear] [--seed S] [--threads T]
                    [--kernel scalar|avx2|auto]
                    maintained all-points RkNN under insert/delete churn,
                    priced per update against rebuild-from-scratch
  rknn-cli serve    --input <file> --k <rank> [--t <scale>] [--threads T]
                    [--queue-cap C] [--prewarm P] [--substrate cover|linear]
                    [--kernel scalar|avx2|auto]
                    long-lived serving engine driven by stdin:
                    q <id> | insert <coords...> | remove <id> | stats | quit
                    (inserts/removes publish a new snapshot epoch; queries
                    never block on updates)
  rknn-cli info     --input <file>            dataset summary

Datasets: CSV (comma-separated coordinates, '#' comments), .fvb binary, or
.fvecs/.ivecs/.bvecs/.idx interchange files. --data is an alias for --input;
--limit N keeps the first N rows while reading, --dims D the leading D
coordinates (both stream — the full file is never materialized).
Threads: --threads 0 (the bench/serve default) defers to the RKNN_THREADS
environment override, then to the CPU count — set RKNN_THREADS to make
worker counts reproducible across hosts.
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("gen") => commands::gen(&args),
        Some("estimate") => commands::estimate(&args),
        Some("query") => commands::query(&args),
        Some("bench") => commands::bench(&args),
        Some("hubness") => commands::hubness(&args),
        Some("churn") => commands::churn(&args),
        Some("serve") => commands::serve(&args),
        Some("info") => commands::info(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\nrun 'rknn-cli help' for usage");
            ExitCode::FAILURE
        }
    }
}
