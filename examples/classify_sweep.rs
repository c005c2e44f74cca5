//! Equivalence-classification campaign over the classical catalog and the
//! rearrangeable constructions.
//!
//! Expands a declarative grid — every classical network family at
//! n = 2..=16, plus random-network samples (PIPID, independent-Banyan,
//! link-permutation, buddy) at smaller sizes, plus the rearrangeable axis
//! (Benes, its 2024 shuffle-based variant, and fundamental-arrangement
//! rewrites of catalog members) — into a canonical subject list, classifies
//! every network into Baseline-equivalence classes across worker threads,
//! prints the per-class summary plus the rearrangeable verdicts, and writes
//! the machine-readable report to `classification.json`. The same `--seed`
//! yields a byte-identical report at any `--threads` value; the CI
//! `classify-smoke` job runs exactly this binary twice and `cmp`s the
//! outputs.
//!
//! The expected rearrangeable verdicts are themselves gated: a full Benes
//! classified Baseline-equivalent (or an entry/exit half classified
//! non-equivalent) exits nonzero, because either way the characterization
//! machinery would be mislabelling a network whose status is a theorem.
//!
//! ```text
//! cargo run --release --example classify_sweep \
//!     [-- --threads <T>] [--seed <S>] [--min-stages <A>] [--max-stages <B>] \
//!     [--random-samples <K>] [--random-min-stages <A>] [--random-max-stages <B>] \
//!     [--benes-max-n <N>] [--rewrite-stages <n>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{
    classify_subjects, ClassicalNetwork, ClassificationGrid, NetworkSpec, RandomFamily, Rewrite,
};
use baseline_equivalence::sim::cli;

const USAGE: &str = "usage: classify_sweep [--threads T] [--seed S] [--min-stages A] \
                     [--max-stages B] [--random-samples K] [--random-min-stages A] \
                     [--random-max-stages B] [--benes-max-n N] [--rewrite-stages n] [--out PATH]";

/// The sweep's options, with their defaults.
struct Args {
    threads: usize,
    seed: u64,
    min_stages: usize,
    max_stages: usize,
    random_samples: u32,
    random_min_stages: usize,
    random_max_stages: usize,
    benes_max_n: usize,
    rewrite_stages: usize,
    out_path: String,
}

fn main() {
    let args = cli::parse_args_or_exit(USAGE, |o| {
        Ok(Args {
            threads: o.take_or("--threads", 0)?, // 0 = one worker per core
            seed: o.take_or("--seed", 0x1988)?,
            min_stages: o.take_or("--min-stages", 2)?,
            max_stages: o.take_or("--max-stages", 16)?,
            random_samples: o.take_or("--random-samples", 2)?,
            random_min_stages: o.take_or("--random-min-stages", 3)?,
            random_max_stages: o.take_or("--random-max-stages", 6)?,
            benes_max_n: o.take_or("--benes-max-n", 4)?, // 0 disables the rearrangeable axis
            rewrite_stages: o.take_or("--rewrite-stages", 4)?, // 0 disables the rewrite axis
            out_path: o.take_or("--out", String::from("classification.json"))?,
        })
    });

    let mut grid =
        ClassificationGrid::over_catalog(args.min_stages..=args.max_stages).with_seed(args.seed);
    // The rearrangeable axis: Benes and its shuffle-based variant at
    // n = 2..=benes_max_n, plus the fundamental-arrangement rewrites of
    // every catalog family at one stage count. These ride the same subject
    // list as the catalog, so the report shows exactly which equivalence
    // classes they land in.
    let catalog_cells = grid.catalog.len();
    for n in 2..=args.benes_max_n.min(16) {
        grid.catalog.push(NetworkSpec::benes(n));
        grid.catalog.push(NetworkSpec::benes_variant(n));
    }
    if (2..=16).contains(&args.rewrite_stages) {
        for family in ClassicalNetwork::ALL {
            for rewrite in Rewrite::ALL {
                grid.catalog
                    .push(NetworkSpec::rewritten(family, args.rewrite_stages, rewrite));
            }
        }
    }
    let rearrangeable_cells = grid.catalog.len() - catalog_cells;
    if args.random_samples > 0 {
        grid = grid.with_random(
            RandomFamily::ALL.to_vec(),
            args.random_min_stages..=args.random_max_stages,
            args.random_samples,
        );
    }

    println!(
        "== Classification: {catalog_cells} catalog cells (n={}..={}) + {rearrangeable_cells} rearrangeable/rewritten cells + {} random subjects = {} subjects (seed {:#x}) ==\n",
        args.min_stages,
        args.max_stages,
        grid.subject_count() - grid.catalog.len(),
        grid.subject_count(),
        args.seed,
    );

    let subjects = grid.subjects();
    let (report, elapsed) = cli::run_timed("classification", || {
        classify_subjects(&subjects, args.threads)
    });

    print!("{}", report.summary_table());
    println!("\n{}", cli::completed_line(elapsed, args.threads));

    if report
        .classes
        .iter()
        .any(|c| c.equivalent && !c.cross_verified)
    {
        eprintln!("cross-verification failed for an equivalence class");
        std::process::exit(1);
    }

    // Rearrangeable verdicts: the full Benes (and its variant) must NOT be
    // Baseline-equivalent — they are rearrangeable, not banyan — while
    // their two banyan halves are exactly the Baseline and Reverse Baseline
    // networks, whose rows in the same report must be equivalent. Both
    // verdicts are theorems, so a flip either way is a machinery bug.
    let mut failed = false;
    if args.benes_max_n >= 2 {
        println!("\n== Rearrangeable verdicts ==");
        for r in &report.subjects {
            let rearrangeable = r.family == "Benes" || r.family == "Benes-variant";
            let rewritten = r.family.contains('+');
            if !rearrangeable && !rewritten {
                continue;
            }
            println!(
                "{:<24} n={:<2} -> {}",
                r.family,
                r.stages,
                if r.equivalent {
                    "Baseline-equivalent"
                } else {
                    "NOT Baseline-equivalent"
                }
            );
            if rearrangeable && r.equivalent {
                eprintln!("{} classified Baseline-equivalent — impossible", r.name());
                failed = true;
            }
        }
        // The halves of Benes(n) are the n-stage Baseline / Reverse
        // Baseline, present as catalog rows of the same report.
        for r in &report.subjects {
            if (r.family == "Baseline" || r.family == "Reverse Baseline")
                && r.stages >= args.min_stages.max(2)
                && r.stages <= args.benes_max_n
                && !r.equivalent
            {
                eprintln!("Benes half {} not Baseline-equivalent", r.name());
                failed = true;
            }
        }
        println!("(each Benes(n) splits into the n-stage Baseline + Reverse Baseline banyan halves above, which classify as equivalent)");
    }
    if failed {
        std::process::exit(1);
    }

    cli::write_artifact(&args.out_path, &report.to_json(), "report");
}
