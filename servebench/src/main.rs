//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against the in-process CREDENCE server and prints a
//! metric table followed, as the last line of standard output, by one JSON
//! result object. `--workload all` runs the three workloads one after the
//! other, each in its own process. Exits 1 when any output check fails and
//! 2 on a usage or set-up error.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use credence_servebench::layers::{per_layer, spawn_traced, Counters, LayerInputs};
use credence_servebench::report::{matches_catalogue, result_line, END_TO_END, PER_LAYER};
use credence_servebench::runner::{
    boot, closed_loop, drive, end_to_end, peak_rss_mb, send_once, verify, ClientRun, Phase, Target,
    Until, WARMUP,
};
use credence_servebench::stats::median;
use credence_servebench::trace::{write_jsonl, SpanLog};
use credence_servebench::workload::{corpus, generate, Workload, PROBE_GAP};

const USAGE: &str = "usage: servebench \
                     --workload <rank_zipf|explain_cold|explain_hot_writes|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups run in child processes before the measured one, so `setup_s` is
/// a median over several set-ups without the discarded stacks inflating
/// this process's memory: at least [`MIN_SETUP_CHILDREN`], and more while
/// their total stays under [`SETUP_CHILDREN_BUDGET_S`] (small corpora set up
/// in milliseconds and need more repeats for a steady median).
const MIN_SETUP_CHILDREN: usize = 2;
const MAX_SETUP_CHILDREN: usize = 14;
const SETUP_CHILDREN_BUDGET_S: f64 = 2.0;

/// Length of the alternating plain / traced slices of the traced run.
const SLICE_NS: u64 = 500_000_000;

/// Wall time of each phase of a run, for the log.
struct Phases(Vec<String>, std::time::Instant);

impl Default for Phases {
    fn default() -> Self {
        Self(Vec::new(), std::time::Instant::now())
    }
}

impl Phases {
    fn mark(&mut self, name: &str) {
        self.0
            .push(format!("{name} {:.2}", self.1.elapsed().as_secs_f64()));
        self.1 = std::time::Instant::now();
    }
}

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    cores: usize,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = match v.as_str() {
                    "all" => Some(None),
                    _ => Some(Some(
                        Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?,
                    )),
                };
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_probe {
            1.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        None => return run_all(&args),
        Some(w) if args.setup_probe => setup_probe(w, args.seed).map(|()| true),
        Some(w) => run(w, &args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload in a child process with the same arguments, passing
/// their output through; the exit code is the worst of theirs.
fn run_all(args: &Args) -> ExitCode {
    let mut worst = 0;
    for w in Workload::ALL {
        let status = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status()
        });
        let code = match status {
            Ok(s) => s.code().unwrap_or(2),
            Err(e) => {
                eprintln!("servebench: cannot run {}: {e}", w.name());
                2
            }
        };
        worst = worst.max(code.clamp(0, 2));
    }
    ExitCode::from(worst as u8)
}

/// Child-process mode: one set-up, timed, printed as `setup_s <seconds>`.
fn setup_probe(workload: Workload, seed: u64) -> Result<(), String> {
    let docs = corpus(workload, seed);
    let booted = boot(docs).map_err(|e| format!("set-up failed: {e}"))?;
    println!("setup_s {}", booted.setup_s);
    booted.handle.stop();
    Ok(())
}

fn child_setup(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child failed to start: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "set-up child printed no time".to_string())
}

fn run(workload: Workload, args: &Args) -> Result<bool, String> {
    let mut phases = Phases::default();
    let clients = workload.clients(args.cores);
    let inputs = generate(workload, args.seed, clients);
    phases.mark("inputs");
    let mut setups = Vec::new();
    if !args.trace {
        while setups.len() < MIN_SETUP_CHILDREN
            || (setups.len() < MAX_SETUP_CHILDREN
                && setups.iter().sum::<f64>() < SETUP_CHILDREN_BUDGET_S)
        {
            setups.push(child_setup(workload, args.seed)?);
        }
        phases.mark("set-up children");
    }
    let booted = boot(inputs.docs.clone()).map_err(|e| format!("set-up failed: {e}"))?;
    setups.push(booted.setup_s);
    phases.mark("set-up");
    let state = booted.state;
    let plain = booted.handle.addr();
    let log: &'static SpanLog = Box::leak(Box::new(SpanLog::new()));
    let traced = if args.trace {
        Some(spawn_traced(state, log).map_err(|e| format!("traced server failed: {e}"))?)
    } else {
        None
    };
    let io = |what: &str| {
        let what = what.to_string();
        move |e: std::io::Error| format!("{what}: {e}")
    };

    if let Some(register) = &inputs.register {
        let (status, _) = send_once(plain, register).map_err(io("registering the probe corpus"))?;
        if status != 201 {
            return Err(format!("registering the probe corpus answered {status}"));
        }
    }

    let plain_only = Target {
        plain,
        traced: None,
    };
    let warm_end = log.now_ns() + WARMUP.as_nanos() as u64;
    closed_loop(
        &inputs.ops,
        &inputs.warmup,
        Phase::Warmup,
        plain_only,
        Until::Deadline(warm_end),
        log,
    );
    phases.mark("warm-up");

    let before = if args.trace {
        Some(Counters::read(state, plain).map_err(io("reading counters"))?)
    } else {
        None
    };
    let target = Target {
        plain,
        traced: traced.as_ref().map(|h| (h.addr(), SLICE_NS)),
    };
    let start = log.now_ns();
    let deadline = start + (args.seconds * 1e9) as u64;
    let window = closed_loop(
        &inputs.ops,
        &inputs.streams,
        Phase::Window,
        target,
        Until::Deadline(deadline),
        log,
    );
    phases.mark("window");
    let after = if args.trace {
        Some(Counters::read(state, plain).map_err(io("reading counters"))?)
    } else {
        None
    };
    let memo = {
        let snap = state.default_snapshot();
        let memo = snap.engine().replay_memo();
        (memo.hits(), memo.misses())
    };
    let probe_target = Target {
        plain: traced.as_ref().map_or(plain, |h| h.addr()),
        traced: None,
    };
    let probe = drive(
        &inputs.ops,
        &inputs.probe,
        0,
        Phase::Probe,
        probe_target,
        Until::Paced(PROBE_GAP.as_nanos() as u64),
        log,
    );
    phases.mark("write probe");

    let mut runs: Vec<&ClientRun> = window.iter().collect();
    runs.push(&probe);
    let verdict = verify(&inputs, &runs);
    phases.mark("checks");

    let (metrics, specs) = match (before, after) {
        (Some(before), Some(after)) => {
            let after_probe = Counters::read(state, plain).map_err(io("reading counters"))?;
            for run in &window {
                log.extend(run.spans.clone());
            }
            let metrics = per_layer(&LayerInputs {
                inputs: &inputs,
                state,
                plain,
                log,
                window: &window,
                before,
                after,
                after_probe,
                replay_memo: memo,
            })
            .map_err(io("measuring layers"))?;
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
            write_jsonl(&log.snapshot(), &path).map_err(io("writing spans"))?;
            println!("spans written to {}", path.display());
            (metrics, PER_LAYER)
        }
        _ => {
            let mut e = end_to_end(&inputs, &window, &probe, start, &verdict);
            e.setup_s = median(&setups);
            e.peak_rss_mb = peak_rss_mb().map_err(io("reading peak RSS"))?;
            println!(
                "samples: {} reads, {} writes; set-ups {:?} s",
                e.reads, e.writes, setups
            );
            let metrics = vec![
                ("setup_s".to_string(), e.setup_s, "s"),
                ("throughput_rps".to_string(), e.throughput_rps, "1/s"),
                ("read_p50_ms".to_string(), e.read_p50_ms, "ms"),
                ("read_p99_ms".to_string(), e.read_p99_ms, "ms"),
                ("write_p50_ms".to_string(), e.write_p50_ms, "ms"),
                ("write_p95_ms".to_string(), e.write_p95_ms, "ms"),
                ("ok_share".to_string(), e.ok_share, "ratio"),
                ("peak_rss_mb".to_string(), e.peak_rss_mb, "MiB"),
            ];
            (metrics, END_TO_END)
        }
    };
    phases.mark("metrics");
    if let Some(handle) = traced {
        handle.stop();
    }
    booted.handle.stop();
    println!("phases (s): {}", phases.0.join(", "));

    matches_catalogue(&metrics, specs)?;
    println!(
        "workload {} seed {} clients {} seconds {} trace {}",
        workload.name(),
        args.seed,
        clients,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>14.4} {unit}");
    }
    let error_share = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    println!("  {:<44} {:>14.4} ratio", "error_share", error_share);
    for problem in &verdict.problems {
        println!("check failed: {problem}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("check failed: a metric is not a finite number");
    }
    let correct = verdict.failed == 0 && verdict.attempted > 0 && finite;
    println!(
        "{}",
        result_line(correct, verdict.attempted.max(1), verdict.failed, &metrics)
    );
    Ok(correct)
}
