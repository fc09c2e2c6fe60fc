//! Self-tests of the benchmark's own machinery: seeded streams, the
//! percentile helper, the HTTP client's connection handling, the span
//! self-time arithmetic, the output checks and the metric catalogue.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread;

use credence_index::Document;
use credence_rng::rngs::StdRng;
use credence_rng::SeedableRng;
use credence_servebench::checks::{check_body, generation_of, Oracle};
use credence_servebench::client::{Client, Template};
use credence_servebench::report::{END_TO_END, PER_LAYER};
use credence_servebench::stats::{median, percentile, sorted, Zipf};
use credence_servebench::trace::{self_times, Span};
use credence_servebench::workload::{generate, Inputs, Kind, Workload};
use credence_server::http::Request;
use credence_server::{handle_request, AppState};

fn stream_bytes(inputs: &Inputs) -> Vec<Vec<u8>> {
    let mut buf = Vec::new();
    inputs
        .streams
        .iter()
        .chain(&inputs.warmup)
        .flat_map(|s| s.iter().take(2000))
        .chain(&inputs.probe)
        .chain(&inputs.layer_probe)
        .map(|&op| {
            inputs.ops[op as usize].template.render(7, &mut buf);
            buf.clone()
        })
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_request_bytes() {
    for workload in [Workload::ExplainHotWrites, Workload::RankZipf] {
        let a = generate(workload, 11, 2);
        let b = generate(workload, 11, 2);
        let c = generate(workload, 12, 2);
        assert_eq!(a.docs, b.docs, "{workload:?}");
        assert_eq!(a.streams, b.streams, "{workload:?}");
        assert_eq!(stream_bytes(&a), stream_bytes(&b), "{workload:?}");
        assert_ne!(stream_bytes(&a), stream_bytes(&c), "{workload:?}");
    }
}

#[test]
fn hot_writes_interleave_one_write_pair_per_cadence_on_client_zero() {
    let inputs = generate(Workload::ExplainHotWrites, 3, 2);
    let writes = |s: &[u32]| {
        s.iter()
            .filter(|&&op| inputs.ops[op as usize].is_write())
            .count()
    };
    assert!(writes(&inputs.streams[0]) > 0);
    assert_eq!(writes(&inputs.streams[1]), 0);
    assert!(inputs.probe.is_empty() && inputs.register.is_none());
    let hot: std::collections::HashSet<u32> = inputs.streams[1].iter().copied().collect();
    assert!(hot.len() <= 24, "hot set has {} requests", hot.len());
}

#[test]
fn hot_writes_run_one_client_with_a_seed_independent_family_mix() {
    assert_eq!(Workload::ExplainHotWrites.clients(2), 1);
    assert_eq!(Workload::RankZipf.clients(2), 2);
    let family_shares = |seed: u64| {
        let inputs = generate(Workload::ExplainHotWrites, seed, 1);
        let mut counts = std::collections::BTreeMap::new();
        let mut reads = 0;
        for &op in &inputs.streams[0] {
            if let Kind::Explain { family, .. } = &inputs.ops[op as usize].kind {
                *counts.entry(family.label()).or_insert(0usize) += 1;
                reads += 1;
            }
        }
        counts
            .into_iter()
            .map(|(f, n)| (f, n as f64 / reads as f64))
            .collect::<Vec<_>>()
    };
    let a = family_shares(5);
    let b = family_shares(6);
    assert_eq!(a.len(), 8);
    for ((fa, sa), (fb, sb)) in a.iter().zip(&b) {
        assert_eq!(fa, fb);
        assert!((sa - sb).abs() < 0.01, "{fa}: {sa} against {sb}");
    }
}

#[test]
fn percentile_is_nearest_rank() {
    let v = sorted(&(1..=100).rev().map(f64::from).collect::<Vec<_>>());
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[4.0], 99.0), 4.0);
    assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    assert!(percentile(&[], 50.0).is_nan());
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn zipf_favours_low_ranks_and_stays_in_range() {
    let z = Zipf::new(50, 1.0);
    let mut rng = StdRng::seed_from_u64(5);
    let mut counts = [0usize; 50];
    for _ in 0..20_000 {
        counts[z.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[49]);
}

/// How a fake server treats the connection after each reply.
#[derive(Clone, Copy)]
enum Peer {
    /// Keep the connection open (HTTP/1.1 default).
    KeepAlive,
    /// Send `connection: close`, then close.
    Close,
    /// Promise keep-alive but close anyway, like a server timing out an
    /// idle connection.
    SilentClose,
}

/// Serve `requests` requests on loopback, answering `ok`.
fn fake_server(peer: Peer, requests: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let mut served = 0;
        while served < requests {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while served < requests {
                let mut len = 0;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                if line != "\r\n" {
                    break; // the client closed this connection
                }
                let mut body = vec![0; len];
                reader.read_exact(&mut body).unwrap();
                let close = matches!(peer, Peer::Close);
                let header = if close { "connection: close\r\n" } else { "" };
                write!(
                    writer,
                    "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n{header}\r\nok"
                )
                .unwrap();
                served += 1;
                if !matches!(peer, Peer::KeepAlive) {
                    break;
                }
            }
        }
    });
    (addr, handle)
}

fn connects_for(peer: Peer) -> u64 {
    let (addr, server) = fake_server(peer, 3);
    let mut client = Client::new(addr);
    let mut buf = Vec::new();
    for id in 0..3 {
        Template::new("POST", "/x", "{}").render(id, &mut buf);
        let reply = client.send(&buf).unwrap();
        assert_eq!((reply.status, reply.body.as_slice()), (200, &b"ok"[..]));
    }
    let connects = client.connects();
    drop(client);
    server.join().unwrap();
    connects
}

#[test]
fn client_reuses_a_kept_alive_connection() {
    assert_eq!(connects_for(Peer::KeepAlive), 1);
}

#[test]
fn client_reconnects_after_connection_close() {
    assert_eq!(connects_for(Peer::Close), 3);
}

#[test]
fn client_retries_once_when_a_kept_alive_connection_was_closed() {
    assert_eq!(connects_for(Peer::SilentClose), 3);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 1,
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_inside_the_parent() {
    let spans = [
        span(1, None, 0, 100),
        span(2, Some(1), 10, 30),
        span(3, Some(1), 20, 50),  // overlaps span 2: counted once
        span(4, Some(1), 90, 120), // sticks out of the parent: clipped
        span(5, Some(2), 12, 14),  // a grandchild does not count for span 1
        span(6, None, 200, 260),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - (40 + 10));
    assert_eq!(selfs[&2], 20 - 2);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&4], 30);
    assert_eq!(selfs[&6], 60);
    // Client span minus handler span is the transport's self time.
    let pair = [span(10, None, 0, 500), span(11, Some(10), 120, 420)];
    let selfs = self_times(&pair);
    assert_eq!(selfs[&10] + pair[1].duration_ns(), pair[0].duration_ns());
}

#[test]
fn generation_is_read_from_the_top_level_field_only() {
    assert_eq!(
        generation_of(br#"{"corpus":"default","generation":17,"x":1}"#),
        17
    );
    assert_eq!(
        generation_of(br#"{"a":"say \"generation\":9","generation":4}"#),
        4
    );
    assert_eq!(generation_of(br#"{"status":"ok"}"#), 0);
}

#[test]
fn checks_accept_the_server_and_reject_a_tampered_ranking() {
    let inputs = generate(Workload::ExplainHotWrites, 1, 1);
    let docs: Vec<Document> = inputs.docs.clone();
    let state = AppState::leak(docs.clone(), credence_core::EngineConfig::fast());
    let mut oracle = Oracle::new(&docs);
    let mut checked = 0;
    for op in inputs.ops.iter().filter(|op| !op.is_write()) {
        let path = match &op.kind {
            Kind::Explain { family, .. } => family.path().to_string(),
            _ => continue,
        };
        let response = handle_request(
            state,
            &Request {
                method: "POST".into(),
                path,
                headers: Default::default(),
                body: op.template.body().to_vec(),
            },
        );
        assert_eq!(response.status, 200);
        check_body(op, &response.body, &mut oracle).unwrap();
        checked += 1;
    }
    // The 24 hot requests plus 12 layer-probe requests per family.
    assert_eq!(checked, 24 + 8 * 12);

    let rank = credence_servebench::workload::generate(Workload::RankZipf, 1, 1);
    let rank_op = &rank.ops[rank.streams[0][0] as usize];
    let state = AppState::leak(rank.docs.clone(), credence_core::EngineConfig::fast());
    let response = handle_request(
        state,
        &Request {
            method: "POST".into(),
            path: "/api/v1/rank".into(),
            headers: Default::default(),
            body: rank_op.template.body().to_vec(),
        },
    );
    let mut oracle = Oracle::new(&rank.docs);
    check_body(rank_op, &response.body, &mut oracle).unwrap();
    let body = String::from_utf8(response.body).unwrap();
    let tampered = body.replacen("\"rank\":1,", "\"rank\":2,", 1);
    assert_ne!(body, tampered);
    assert!(check_body(rank_op, tampered.as_bytes(), &mut oracle).is_err());
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let json = credence_json::parse(&text).unwrap();
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = json.get(key).and_then(|v| v.as_array()).unwrap();
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (entry, (name, unit, better)) in listed.iter().zip(specs) {
            assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(*name));
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(*unit));
            assert_eq!(entry.get("better").and_then(|v| v.as_str()), Some(*better));
        }
    }
}
