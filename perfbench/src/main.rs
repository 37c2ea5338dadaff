//! The repository benchmark: served commit/query latency as a
//! `gsls-client` sees it, plus a traced in-process replay that splits
//! the same op stream by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). Each run seeds a fresh durable data
//! dir under `.perfbench/`, spawns this binary again in a server role
//! (`Server::start` with `ServerConfig::default()`, only the address and
//! data dir changed), measures set-up as spawn-to-`Opened` over several
//! starts, then drives a closed-loop load of a fixed op count from at
//! most two threads and two connections. After the timed window, and
//! untimed, it checks the server's answers against from-scratch
//! sessions. With `--trace 1` it also replays the same op stream
//! in-process through each layer's public functions, in the order the
//! server calls them, recording spans (written to
//! `.perfbench/trace-<workload>-seed<n>.jsonl`) and registry deltas.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics of `BENCHMARK.json`
//! with `--trace 0`, its per-layer metrics with `--trace 1`). The lines
//! before it give the run fingerprint and every figure by name and
//! unit. A wrong answer makes the run exit non-zero.

mod replay;
mod served;
mod stats;
mod trace;
mod workload;

use stats::median;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Board, Kind, Load, Plan, Spec};

/// Where runs keep their data dirs and traces, relative to the
/// working directory.
const WORK_ROOT: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--serve-role") {
        argv.next();
        let Some(dir) = argv.next() else {
            eprintln!("--serve-role needs a data dir");
            return ExitCode::from(2);
        };
        return match served::serve_role(PathBuf::from(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let work = Path::new(WORK_ROOT).join(format!("work-{}", std::process::id()));
    let result = run(&spec, &args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: wrong answers or a failed layer check (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A named figure with its unit, printed by name and, when it is one
/// of the benchmark's metrics, reported in the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Set-up starts per run; the reported `setup_s` is their median.
const SETUP_STARTS: usize = 5;

fn run(spec: &Spec, args: &Args, work: &Path) -> Result<bool, String> {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let board = Board::new(spec.width, spec.height);
    let plan = Plan::new(spec, &board, args.seed, args.seconds);
    let seed_dir = work.join("seed");
    served::seed_dir(&board, &seed_dir)?;
    let serve_root = work.join("serve");
    served::copy_dir(&seed_dir, &serve_root.join(served::SESSION))?;

    print_fingerprint(spec, args, &plan, &serve_root);
    let run = served::run(spec, &board, &plan, args.seed, &serve_root, SETUP_STARTS)?;

    let mut served_figures = vec![
        metric("setup_s", "s", median(&run.setup_s)),
        metric("server_rss_mb", "MiB", run.server_rss_mb),
        metric("failed_frac", "ratio", run.tally.failed_frac()),
        metric("commits_issued", "count", run.commits as f64),
        metric("queries_issued", "count", run.queries as f64),
    ];
    for (k, t) in [
        ("commit", &run.commits_timed),
        ("query", &run.queries_timed),
        ("cycle", &run.cycles_timed),
    ] {
        if t.is_empty() {
            continue;
        }
        served_figures.push(metric(
            format!("{k}_p50_ms"),
            "ms",
            t.p50_ms().unwrap_or(0.0),
        ));
        served_figures.push(metric(
            format!("{k}_p90_ms"),
            "ms",
            t.p90_ms().unwrap_or(0.0),
        ));
        served_figures.push(metric(
            format!("{k}_p99_ms"),
            "ms",
            t.p99_ms().unwrap_or(0.0),
        ));
        served_figures.push(metric(
            format!("{k}_per_s"),
            "1/s",
            t.per_s().unwrap_or(0.0),
        ));
        served_figures.push(metric(format!("{k}_samples"), "count", t.len() as f64));
    }
    println!("served {}:", spec.name);
    for m in &served_figures {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }

    let headline = match spec.load {
        Load::Write => &run.commits_timed,
        Load::Read => &run.queries_timed,
        Load::Churn => &run.cycles_timed,
    };
    let missing = || format!("no timed {}s", spec.load.headline());
    let p50 = headline.p50_ms().ok_or_else(missing)?;
    let p90 = headline.p90_ms().ok_or_else(missing)?;
    let per_s = headline.per_s().ok_or_else(missing)?;
    // The p99 is printed, not gated (see `end_to_end`), but a run must
    // time enough ops to report it.
    headline.p99_ms().ok_or_else(|| {
        format!(
            "{} timed {} samples leave fewer than {} beyond p99",
            headline.len(),
            spec.load.headline(),
            stats::MIN_BEYOND
        )
    })?;
    let mut tally = run.tally;
    let mut layer_ok = true;
    let metrics = if args.trace {
        let out = replay::run(spec, &plan, &seed_dir, &work.join("replay"), &run)?;
        tally.merge(&out.tally);
        layer_ok = out.checks_ok;
        let trace_path =
            Path::new(WORK_ROOT).join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        std::fs::write(&trace_path, &out.spans_jsonl)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        println!("trace written to {}", trace_path.display());
        println!("per-layer {}:", spec.name);
        for m in &out.metrics {
            println!("  {} = {} {}", m.name, m.value, m.unit);
        }
        out.metrics
    } else {
        end_to_end(median(&run.setup_s), p50, p90, per_s, run.server_rss_mb)
    };
    let correct = tally.failed() == 0 && layer_ok;
    println!(
        "failed_frac = {} ratio ({} of {} ops: {} errors, {} interrupted, {} wrong)",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted,
        tally.errors,
        tally.interrupted,
        tally.wrong
    );
    println!("{}", result_line(correct, &tally, &metrics));
    Ok(correct)
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order. The tail
/// they bound is the p90: on a shared 2-vCPU host the p99 moved by a
/// third of its median from run to run, wider than any bound that
/// could resolve a regression, so it is reported per kind
/// (`commit_p99_ms`, `query_p99_ms`) and in the per-layer `serve.*`.
fn end_to_end(setup_s: f64, p50: f64, p90: f64, per_s: f64, rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", setup_s),
        metric("p50_ms", "ms", p50),
        metric("p90_ms", "ms", p90),
        metric("ops_per_s", "1/s", per_s),
        metric("server_rss_mb", "MiB", rss_mb),
    ]
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, tally: &stats::Tally, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            json_num(x.value),
            x.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.attempted.max(1),
        tally.failed()
    )
}

/// The filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`), or `unknown`.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The checked-out revision, read from `.git` when the working
/// directory is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(r)) {
            return rev.trim().to_string();
        }
        return format!("unknown ({r})");
    }
    if head.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        head.to_string()
    }
}

fn print_fingerprint(spec: &Spec, args: &Args, plan: &Plan, data_dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let d = gsls_durable::DurableOpts::default();
    let (mut commits, mut queries) = (0, 0);
    for s in &plan.streams {
        for op in s {
            match op.kind() {
                Kind::Commit => commits += 1,
                Kind::Query => queries += 1,
            }
        }
    }
    let queries = if spec.load == Load::Churn {
        "until-writer-done".to_string()
    } else {
        queries.to_string()
    };
    println!(
        "fingerprint {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_rev\": \"{}\", \"profile\": \"{profile}\", \
         \"data_dir_fs\": \"{}\", \"flush\": \"fsync={} checkpoint_records={} \
         checkpoint_bytes={}\", \"connections\": {}, \"planned_commits\": {commits}, \
         \"planned_queries\": \"{queries}\", \"op_stream_fnv1a\": \"{:016x}\"}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        fs_type(data_dir),
        d.fsync,
        d.checkpoint_records,
        d.checkpoint_bytes,
        plan.streams.len(),
        fnv1a(plan.to_text().as_bytes()),
    );
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "<x>"` values of one array in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn result_lines_carry_exactly_the_declared_metrics() {
        let names: Vec<String> = end_to_end(1.0, 2.0, 3.0, 4.0, 5.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, declared("end_to_end"));
        let workloads: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        assert_eq!(declared("workloads"), workloads);
        let layers = include_str!("../layers.json");
        for name in declared("per_layer") {
            assert!(
                layers.contains(&format!("\"metric\": \"{name}\"")),
                "{name} is not in layers.json"
            );
        }
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut tally = stats::Tally::default();
        tally.record(Ok(()));
        tally.record(Err(stats::Failure::Wrong));
        let line = result_line(false, &tally, &[metric("p50_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
