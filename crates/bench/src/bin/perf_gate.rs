//! CI perf/fallback gate over `BENCH_lp.json`.
//!
//! Usage: `perf_gate <committed.json> <fresh.json> [--correctness-only]`
//!
//! Checks the fresh record against the committed one by the rules of
//! [`abt_bench::perf_gate::RULES`] and exits 1 on any failure;
//! `--correctness-only` skips the timing and effort rules (see
//! [`abt_bench::perf_gate`]).

use abt_bench::bench_record::BenchRecord;
use abt_bench::perf_gate::gate;

fn load(path: &str) -> BenchRecord {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    BenchRecord::from_json(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let correctness_only = args.iter().any(|a| a == "--correctness-only");
    let paths: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--correctness-only")
        .collect();
    let [committed_path, fresh_path] = paths[..] else {
        eprintln!("usage: perf_gate <committed.json> <fresh.json> [--correctness-only]");
        std::process::exit(2);
    };
    let (summary, failures) = gate(&load(committed_path), &load(fresh_path), correctness_only);
    println!("{summary}");
    if failures.is_empty() {
        println!("perf_gate: PASS");
    } else {
        for msg in &failures {
            eprintln!("perf_gate: FAIL: {msg}");
        }
        std::process::exit(1);
    }
}
