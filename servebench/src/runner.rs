//! Set-up, the closed loop, output verification and the end-to-end
//! metrics.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use credence_core::EngineConfig;
use credence_index::Document;
use credence_server::{
    AppState, ExplainCacheConfig, JobsConfig, RankerChoice, Server, ServerHandle,
};

use crate::checks::{check_body, content_hash, generation_of, Oracle};
use crate::client::{Client, Template};
use crate::stats::{percentile, ratio, sorted};
use crate::trace::{Span, SpanLog};
use crate::workload::{Inputs, Kind, Op, Workload};

/// Untimed warm-up before the measured window: the ranking and explanation
/// caches reach their steady state and lazily built state is in place.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Request ids are `phase << 44 | client << 40 | sequence`.
const PHASE_SHIFT: u32 = 44;
const CLIENT_SHIFT: u32 = 40;

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed warm-up.
    Warmup = 0,
    /// The measured window.
    Window = 1,
    /// The post-window write probe.
    Probe = 2,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index into [`Inputs::ops`].
    pub op: u32,
    /// Request id, sent as `x-bench-id`; the client span's id.
    pub id: u64,
    /// Send start, ns since the span log's epoch.
    pub start_ns: u64,
    /// Reply end, ns since the span log's epoch.
    pub end_ns: u64,
    /// HTTP status; 0 when the exchange failed below HTTP.
    pub status: u16,
    /// [`content_hash`] of the body: repeats of one (request, generation)
    /// must match it.
    pub hash: u64,
    /// The generation the body reports.
    pub generation: u32,
    /// Whether it went to the traced server.
    pub traced: bool,
}

impl Sample {
    /// Client-side latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Whether the server answered 2xx.
    pub fn ok_status(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// What one client recorded in one phase.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Every request, in order.
    pub samples: Vec<Sample>,
    /// One body per distinct answer, keyed by (op, generation parity,
    /// [`content_hash`]). Answers that differ only in the generation they
    /// report are kept once, so the record does not grow with the
    /// generations a writing workload publishes; the parity keeps the two
    /// corpus states it alternates between apart.
    pub bodies: HashMap<(u32, u32, u64), Vec<u8>>,
    /// Client spans of requests sent to the traced server.
    pub spans: Vec<Span>,
    /// TCP connections opened.
    pub connects: u64,
}

/// Where requests go: the plain server, or — in the traced run — the plain
/// and the traced server in alternating time slices.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Server whose `App` is the bare `AppState`.
    pub plain: SocketAddr,
    /// Server whose `App` records handler spans, with the slice length.
    pub traced: Option<(SocketAddr, u64)>,
}

impl Target {
    fn at(&self, since_start_ns: u64) -> (SocketAddr, bool) {
        match self.traced {
            Some((addr, slice)) if (since_start_ns / slice) % 2 == 1 => (addr, true),
            _ => (self.plain, false),
        }
    }
}

/// How long a client keeps sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Cycle through the stream until this many ns since the log's epoch.
    Deadline(u64),
    /// Send the stream once, request `i` no earlier than `i` times this
    /// many ns after the first.
    Paced(u64),
}

/// Drive one client through `stream` (indices into `ops`).
pub fn drive(
    ops: &[Op],
    stream: &[u32],
    client: usize,
    phase: Phase,
    target: Target,
    until: Until,
    log: &SpanLog,
) -> ClientRun {
    // Reserved up front so the record never reallocates mid-run: the
    // measuring process's peak RSS then grows with the requests sent, not
    // with where the allocator happened to place a grown copy.
    let mut run = ClientRun {
        samples: Vec::with_capacity(stream.len()),
        ..ClientRun::default()
    };
    let mut conn = Client::new(target.plain);
    let mut buf = Vec::with_capacity(1024);
    let start = log.now_ns();
    let base = ((phase as u64) << PHASE_SHIFT) | ((client as u64) << CLIENT_SHIFT);
    for (seq, &op) in stream.iter().cycle().enumerate() {
        match until {
            Until::Deadline(end) if log.now_ns() >= end => break,
            Until::Paced(_) if seq == stream.len() => break,
            Until::Paced(gap) => {
                let due = start + seq as u64 * gap;
                let now = log.now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
            }
            _ => {}
        }
        let id = base | seq as u64;
        let (addr, traced) = target.at(log.now_ns() - start);
        conn.retarget(addr);
        ops[op as usize].template.render(id, &mut buf);
        let start_ns = log.now_ns();
        let reply = conn.send(&buf);
        let end_ns = log.now_ns();
        let (status, hash, generation, body) = match reply {
            Ok(r) => (
                r.status,
                content_hash(&r.body),
                generation_of(&r.body),
                Some(r.body),
            ),
            Err(_) => (0, 0, 0, None),
        };
        if let Some(body) = body {
            run.bodies.entry((op, generation % 2, hash)).or_insert(body);
        }
        run.samples.push(Sample {
            op,
            id,
            start_ns,
            end_ns,
            status,
            hash,
            generation,
            traced,
        });
        if traced {
            run.spans.push(Span {
                id,
                parent: None,
                request: id,
                name: "client",
                start_ns,
                end_ns,
            });
        }
    }
    run.connects = conn.connects();
    run
}

/// Run one client thread per stream until `until`, and join them all.
pub fn closed_loop(
    ops: &[Op],
    streams: &[Vec<u32>],
    phase: Phase,
    target: Target,
    until: Until,
    log: &SpanLog,
) -> Vec<ClientRun> {
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| s.spawn(move || drive(ops, stream, c, phase, target, until, log)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A booted server stack.
pub struct Booted {
    /// The leaked application state.
    pub state: &'static AppState,
    /// The accept loop serving it.
    pub handle: ServerHandle,
    /// Seconds from building the state to the first healthy reply.
    pub setup_s: f64,
}

/// Build the real `credence-server` stack over `docs` (BM25, default engine,
/// job and cache configuration, as `credence-serve` starts it), bind it to
/// an ephemeral port and wait for a healthy reply.
pub fn boot(docs: Vec<Document>) -> io::Result<Booted> {
    let started = Instant::now();
    let state = AppState::leak_full(
        docs,
        EngineConfig::default(),
        RankerChoice::Bm25,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state)?.spawn()?;
    let (status, _) = send_once(handle.addr(), &Template::new("GET", "/api/v1/health", ""))?;
    if status != 200 {
        return Err(io::Error::other(format!("health check answered {status}")));
    }
    Ok(Booted {
        state,
        handle,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// The outcome of the output checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests checked.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Check every recorded response of `runs`: 2xx status, byte-identical
/// repeats per (request, generation), and each distinct body against the
/// oracle of the corpus state that answered it.
pub fn verify(inputs: &Inputs, runs: &[&ClientRun]) -> Verdict {
    let mut oracles = [Oracle::new(&inputs.docs), {
        let mut docs = inputs.docs.clone();
        docs.push(inputs.offtopic.clone());
        Oracle::new(&docs)
    }];
    let mut bodies: HashMap<(u32, u32, u64), &[u8]> = HashMap::new();
    for run in runs {
        for (key, body) in &run.bodies {
            bodies.entry(*key).or_insert(body);
        }
    }
    // In the writing workload odd generations hold the off-topic doc; the
    // other workloads read a corpus that never changes.
    let writing = inputs.workload == Workload::ExplainHotWrites;
    let verdicts: HashMap<(u32, u32, u64), Result<(), String>> = bodies
        .iter()
        .map(|(&(op, parity, hash), body)| {
            let state = if writing { parity as usize } else { 0 };
            let result = check_body(&inputs.ops[op as usize], body, &mut oracles[state]);
            ((op, parity, hash), result)
        })
        .collect();
    let mut first: HashMap<(u32, u32), u64> = HashMap::new();
    let mut v = Verdict::default();
    for run in runs {
        for s in &run.samples {
            v.attempted += 1;
            let op = &inputs.ops[s.op as usize];
            let what = || format!("{:?}", op.kind);
            if !s.ok_status() {
                v.fail(format!("status {} for {}", s.status, what()));
            } else if !writing && !op.is_write() && s.generation != 0 {
                v.fail(format!(
                    "unexpected generation {} for {}",
                    s.generation,
                    what()
                ));
            } else if *first.entry((s.op, s.generation)).or_insert(s.hash) != s.hash {
                v.fail(format!(
                    "repeat at generation {} differs for {}",
                    s.generation,
                    what()
                ));
            } else {
                match verdicts.get(&(s.op, s.generation % 2, s.hash)) {
                    Some(Ok(())) => {}
                    Some(Err(e)) => v.fail(format!("{e} for {}", what())),
                    None => v.fail(format!("no body kept for {}", what())),
                }
            }
        }
    }
    v
}

/// Send one request (untimed; for set-up steps).
pub fn send_once(addr: SocketAddr, template: &Template) -> io::Result<(u16, Vec<u8>)> {
    let mut buf = Vec::new();
    template.render(0, &mut buf);
    let reply = Client::new(addr).send(&buf)?;
    Ok((reply.status, reply.body))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("VmHWM missing from /proc/self/status"))
}

/// Latencies (ms, sorted) of the samples `keep` selects.
pub fn latencies(ops: &[Op], runs: &[&ClientRun], keep: impl Fn(&Sample, &Op) -> bool) -> Vec<f64> {
    let values: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| keep(s, &ops[s.op as usize]))
        .map(Sample::latency_ms)
        .collect();
    sorted(&values)
}

/// The end-to-end figures of one run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups.
    pub setup_s: f64,
    /// Successful requests per second in the window.
    pub throughput_rps: f64,
    /// Read latency p50 / p99 (ms).
    pub read_p50_ms: f64,
    /// Read latency p99 (ms).
    pub read_p99_ms: f64,
    /// Write latency p50 (ms).
    pub write_p50_ms: f64,
    /// Write latency p95 (ms).
    pub write_p95_ms: f64,
    /// Correct 2xx responses over requests attempted.
    pub ok_share: f64,
    /// Peak resident set size (MiB).
    pub peak_rss_mb: f64,
    /// Read and write sample counts.
    pub reads: usize,
    /// Write samples.
    pub writes: usize,
}

/// Compute the end-to-end figures from the window and the write probe.
pub fn end_to_end(
    inputs: &Inputs,
    window: &[ClientRun],
    probe: &ClientRun,
    window_start_ns: u64,
    verdict: &Verdict,
) -> EndToEnd {
    let ops = &inputs.ops;
    let win: Vec<&ClientRun> = window.iter().collect();
    let reads = latencies(ops, &win, |s, op| s.ok_status() && !op.is_write());
    let mut all: Vec<&ClientRun> = win.clone();
    all.push(probe);
    let writes = latencies(ops, &all, |s, op| {
        s.ok_status() && matches!(op.kind, Kind::Write { .. })
    });
    let last_end = window
        .iter()
        .flat_map(|r| r.samples.last())
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(window_start_ns);
    let ok = window
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.ok_status())
        .count();
    EndToEnd {
        setup_s: 0.0,
        throughput_rps: ratio(ok as f64, (last_end - window_start_ns) as f64 / 1e9),
        read_p50_ms: percentile(&reads, 50.0),
        read_p99_ms: percentile(&reads, 99.0),
        write_p50_ms: percentile(&writes, 50.0),
        write_p95_ms: percentile(&writes, 95.0),
        ok_share: ratio(
            (verdict.attempted - verdict.failed) as f64,
            verdict.attempted as f64,
        ),
        peak_rss_mb: 0.0,
        reads: reads.len(),
        writes: writes.len(),
    }
}
