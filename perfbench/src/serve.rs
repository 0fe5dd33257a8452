//! `serve`: the synthesis daemon over its Unix socket, closed loop with one
//! client on one connection.
//!
//! The daemon runs in-process (`eblocks_serve::spawn`, default config: one
//! worker, no admission lint). The traffic mix is `synth` requests over
//! the 15 Table 1 designs in a seeded order, the committed golden batch
//! request once per 15 of them, and a `stats` poll every 10th request.
//! Designs repeat on purpose: this is the one workload a result cache
//! could serve. Latency covers payload requests only.

use crate::harness::{drive, mix, set_up, Args, Op, Outcome, SetupStat};
use crate::trace::Tracer;
use eblocks::api::{
    self, Admission, BatchRequest, BatchResponse, CSource, DesignSource, ReplyEnvelope,
    RequestEnvelope, ServeReply, ServeRequest, SynthRequest,
};
use eblocks::farm::{run_batch, FarmConfig, JsonOptions};
use eblocks::serve::{ServeConfig, ServeSummary, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SALT_ORDER: u64 = 0x5e_e001;

/// A `stats` poll is every this many requests.
const STATS_EVERY: usize = 10;
/// The golden batch follows every 15 `synth` requests.
const CYCLE: usize = 16;

/// Requests per second of `--seconds`, measured on two cores.
const REQUESTS_PER_SECOND: usize = 170;

const GOLDEN_REQUEST: &str = "tests/golden/batch-request.json";
const GOLDEN_REPORT: &str = "tests/golden/batch-report.json";

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `synth` of the Table 1 design with this index.
    Synth(usize),
    /// The golden batch.
    Batch,
    /// A `stats` poll.
    Stats,
}

/// The request mix: `requests` requests for workload `seed`.
fn plan(seed: u64, designs: usize, requests: usize) -> Vec<Kind> {
    let mut order = Vec::new();
    let mut payloads = 0usize;
    (0..requests)
        .map(|r| {
            if r % STATS_EVERY == STATS_EVERY - 1 {
                return Kind::Stats;
            }
            let (cycle, at) = (payloads / CYCLE, payloads % CYCLE);
            payloads += 1;
            if at == CYCLE - 1 {
                return Kind::Batch;
            }
            if at == 0 {
                order = (0..designs).collect();
                order.sort_by_key(|&d| mix(&[seed, SALT_ORDER, cycle as u64, d as u64]));
            }
            Kind::Synth(order[at % designs])
        })
        .collect()
}

/// The client end of one socket connection.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

/// A running daemon with one connected client.
struct Daemon {
    handle: ServerHandle,
    client: Client,
}

/// What one request exchange returned.
struct Exchange {
    latency: Duration,
    verdicts: Vec<Admission>,
    reply: ServeReply,
    bytes: usize,
}

impl Client {
    fn read(&mut self, line: &mut String) -> Result<usize, String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("socket read: {e}")),
        }
    }

    /// Sends one request and reads its replies through the final one.
    fn exchange(
        &mut self,
        tracer: &mut Tracer,
        envelope: &RequestEnvelope,
        op: u64,
    ) -> Result<Exchange, String> {
        let payload = !matches!(envelope.request, ServeRequest::Stats);
        let started = Instant::now();
        let root = tracer.begin(
            if payload {
                "serve.request"
            } else {
                "serve.stats"
            },
            op,
        );
        let result = self.round_trip(tracer, envelope, op, payload);
        tracer.end(root);
        let latency = started.elapsed();
        let (verdicts, reply, bytes) = result?;
        if let ServeReply::Error(e) = &reply {
            return Err(format!("daemon error: {e}"));
        }
        Ok(Exchange {
            latency,
            verdicts,
            reply,
            bytes,
        })
    }

    fn round_trip(
        &mut self,
        tracer: &mut Tracer,
        envelope: &RequestEnvelope,
        op: u64,
        payload: bool,
    ) -> Result<(Vec<Admission>, ServeReply, usize), String> {
        let line = tracer.span("serde.encode", op, || serde::json::to_string(envelope)) + "\n";
        let mut buf = String::new();
        let mut bytes = 0;
        let mut verdicts = Vec::new();
        let decode = |tracer: &mut Tracer, buf: &str| -> Result<ServeReply, String> {
            let reply: ReplyEnvelope = tracer
                .span("serde.decode", op, || serde::json::from_str(buf))
                .map_err(|e| format!("bad reply line: {e}"))?;
            if reply.id != envelope.id {
                return Err(format!(
                    "reply for {:?}, expected {:?}",
                    reply.id, envelope.id
                ));
            }
            Ok(reply.reply)
        };
        let mut send = || {
            self.writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("socket write: {e}"))?;
            self.read(&mut buf)
        };
        // A payload's first reply is its admission verdict; a `stats`
        // reply is the whole answer.
        bytes += if payload {
            tracer.span("serve.admission", op, send)?
        } else {
            send()?
        };
        let mut reply = decode(tracer, &buf)?;
        if !payload {
            return Ok((verdicts, reply, bytes));
        }
        let run = tracer.begin("serve.run", op);
        let last = loop {
            match reply {
                ServeReply::Admission(verdict) => verdicts.push(verdict.status),
                ServeReply::Progress(_) => {}
                last => break Ok(last),
            }
            let next = self.read(&mut buf).and_then(|n| {
                bytes += n;
                decode(tracer, &buf)
            });
            match next {
                Ok(next) => reply = next,
                Err(e) => break Err(e),
            }
        };
        tracer.end(run);
        Ok((verdicts, last?, bytes))
    }
}

/// Asks a daemon to drain and waits for it.
fn stop(handle: ServerHandle) -> Result<ServeSummary, String> {
    handle.shutdown();
    handle.join()
}

impl Daemon {
    /// Connects one client to a spawned daemon and checks that it answers
    /// a `stats` request.
    fn connect(handle: ServerHandle, socket: &Path) -> Result<Self, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() > deadline => {
                    let _ = stop(handle);
                    return Err(format!("cannot connect to {}: {e}", socket.display()));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let reader = match stream.try_clone() {
            Ok(clone) => BufReader::new(clone),
            Err(e) => {
                let _ = stop(handle);
                return Err(e.to_string());
            }
        };
        let mut daemon = Self {
            handle,
            client: Client {
                writer: stream,
                reader,
            },
        };
        let stats = RequestEnvelope {
            id: Some("hello".to_string()),
            request: ServeRequest::Stats,
        };
        match daemon.client.exchange(&mut Tracer::new(), &stats, 0) {
            Ok(_) => Ok(daemon),
            Err(e) => {
                let _ = daemon.stop();
                Err(format!("daemon did not answer: {e}"))
            }
        }
    }

    fn stop(self) -> Result<ServeSummary, String> {
        drop(self.client);
        stop(self.handle)
    }
}

/// The request mix and the golden batch, as sent and as answered.
struct Traffic {
    envelopes: Vec<(Kind, RequestEnvelope)>,
    golden: String,
    batch: BatchRequest,
}

/// What set-up builds: the traffic and a spawned daemon listening on its
/// socket. The first connection is made after set-up: the daemon's
/// listener polls for connections every 10 ms, and whether the first
/// connect lands before or after its first poll is a race that would make
/// set-up read either about 0.5 ms or about 11 ms.
struct Inputs {
    traffic: Traffic,
    handle: ServerHandle,
}

/// The request of one kind in the mix.
fn request(kind: Kind, names: &[&str], batch: &BatchRequest) -> ServeRequest {
    match kind {
        Kind::Synth(d) => ServeRequest::Synth(SynthRequest::new(DesignSource::Library(
            names[d].to_string(),
        ))),
        Kind::Batch => ServeRequest::Batch(batch.clone()),
        Kind::Stats => ServeRequest::Stats,
    }
}

fn inputs(
    args: &Args,
    dir: &Path,
    socket: &Path,
    names: &[&str],
    requests: usize,
) -> Result<Inputs, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let batch: BatchRequest = serde::json::from_str(&read(GOLDEN_REQUEST)?)
        .map_err(|e| format!("{GOLDEN_REQUEST}: {e}"))?;
    let golden = read(GOLDEN_REPORT)?.trim_end().to_string();
    let envelopes = plan(args.seed, names.len(), requests)
        .into_iter()
        .enumerate()
        .map(|(r, kind)| {
            let id = Some(format!("q{r}"));
            let request = request(kind, names, &batch);
            (kind, RequestEnvelope { id, request })
        })
        .collect();
    let handle = eblocks::serve::spawn(ServeConfig::new(dir).socket(socket))?;
    Ok(Inputs {
        traffic: Traffic {
            envelopes,
            golden,
            batch,
        },
        handle,
    })
}

/// The in-process answer to a payload: `api::synthesize` for a design,
/// `run_batch` for the golden batch (as the JSON the daemon sends).
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Synth {
        netlist: String,
        c_sources: Vec<CSource>,
    },
    Batch(String),
}

fn in_process(request: &ServeRequest) -> Result<Expected, String> {
    match request {
        ServeRequest::Synth(synth) => api::synthesize(synth).map(|r| Expected::Synth {
            netlist: r.netlist,
            c_sources: r.c_sources,
        }),
        ServeRequest::Batch(batch) => {
            let report = run_batch(&batch.to_batch(), &FarmConfig::default());
            let response = BatchResponse::from_report(&report, &JsonOptions::default());
            Ok(Expected::Batch(serde::json::to_string(&response)))
        }
        _ => Err("not a payload".to_string()),
    }
}

/// Checks a payload's replies: one `accepted` verdict, then a final reply
/// equal to the in-process answer. Returns the reply's inner blocks.
fn check(exchange: &Exchange, expected: &Expected) -> Result<u64, String> {
    if exchange.verdicts != [Admission::Accepted] {
        return Err(format!("admission verdicts {:?}", exchange.verdicts));
    }
    match (&exchange.reply, expected) {
        (ServeReply::Synth(reply), Expected::Synth { netlist, c_sources }) => {
            if &reply.netlist != netlist || &reply.c_sources != c_sources {
                return Err(format!(
                    "{}: reply differs from in-process synthesis",
                    reply.design
                ));
            }
            Ok(reply.inner_after as u64)
        }
        (ServeReply::Batch(reply), Expected::Batch(json)) => {
            if &serde::json::to_string(reply) != json {
                return Err("batch reply differs from the golden report".to_string());
            }
            Ok(reply.batch.inner_after as u64)
        }
        (reply, _) => Err(format!("unexpected final reply {reply:?}")),
    }
}

/// Runs `requests` requests against a fresh daemon.
pub fn run_sized(args: &Args, tracer: &mut Tracer, requests: usize) -> Result<Outcome, String> {
    let dir = PathBuf::from(format!(".perfbench/serve-{}", std::process::id()));
    let library = eblocks::designs::all();
    let names: Vec<&str> = library.iter().map(|d| d.name).collect();
    let socket = dir.join("daemon.sock");
    let setup = set_up(
        args.trace,
        tracer,
        |_| inputs(args, &dir, &socket, &names, requests),
        |old: Inputs| drop(stop(old.handle)),
    );
    let result = setup.and_then(|(Inputs { traffic, handle }, setup)| {
        let mut daemon = Daemon::connect(handle, &socket)?;
        let outcome = measure(args, tracer, &names, &traffic, &mut daemon, setup);
        let summary = daemon.stop();
        outcome.map(|mut outcome| {
            let drained = summary.and_then(|s| {
                if s.rejected == 0 && s.completed == s.accepted {
                    Ok(())
                } else {
                    Err(format!("{s:?}"))
                }
            });
            outcome.checks.push((
                "daemon answered everything it accepted".to_string(),
                drained,
            ));
            outcome
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    args: &Args,
    tracer: &mut Tracer,
    names: &[&str],
    traffic: &Traffic,
    daemon: &mut Daemon,
    setup: SetupStat,
) -> Result<Outcome, String> {
    // In-process answers, one per distinct payload, for the output checks.
    let payloads: Vec<Kind> = (0..names.len())
        .map(Kind::Synth)
        .chain([Kind::Batch])
        .collect();
    let mut expected = Vec::new();
    for &kind in &payloads {
        let answer = in_process(&request(kind, names, &traffic.batch));
        expected.push(answer.map_err(|e| format!("{kind:?}: {e}"))?);
    }
    if expected[names.len()] != Expected::Batch(traffic.golden.clone()) {
        return Err("in-process batch differs from the golden report".to_string());
    }
    let expect = |kind: Kind| match kind {
        Kind::Synth(d) => &expected[d],
        _ => &expected[names.len()],
    };

    // Warm up on one request of each payload.
    for (i, &kind) in payloads.iter().enumerate() {
        let envelope = RequestEnvelope {
            id: Some(format!("w{i}")),
            request: request(kind, names, &traffic.batch),
        };
        let exchange = daemon.client.exchange(tracer, &envelope, 0)?;
        check(&exchange, expect(kind)).map_err(|e| format!("warm-up: {e}"))?;
    }

    let mut sent = payloads.len() as u64;
    let (mut inner_blocks, mut reply_bytes, mut stats_rows) = (0u64, 0u64, 0u64);
    let envelopes = &traffic.envelopes;
    let phase = drive(envelopes.len(), args.trace, tracer, |r, tracer| {
        let counted = tracer.enabled() || !args.trace;
        let (kind, envelope) = &envelopes[r];
        let exchange = match daemon.client.exchange(tracer, envelope, r as u64) {
            Ok(exchange) => exchange,
            Err(e) => return Op::failed(Duration::ZERO, e),
        };
        if counted {
            reply_bytes += exchange.bytes as u64;
        }
        if let ServeReply::Stats(stats) = &exchange.reply {
            stats_rows = stats.stages.iter().map(|s| s.runs as u64).sum();
            let mut op = Op::ok(exchange.latency, 0.0);
            op.sample = false;
            return op;
        }
        sent += 1;
        if tracer.enabled() {
            let reference = tracer.span("farm.synthesize", r as u64, || {
                in_process(&envelope.request)
            });
            if reference.as_ref() != Ok(expect(*kind)) {
                return Op::failed(exchange.latency, "in-process answer changed");
            }
        }
        match check(&exchange, expect(*kind)) {
            Ok(blocks) => {
                if counted {
                    inner_blocks += blocks;
                }
                Op::ok(exchange.latency, 1.0)
            }
            Err(e) => Op::failed(exchange.latency, e),
        }
    });

    let stats = daemon.handle.stats();
    let mut outcome = Outcome::new(phase, setup, "payload requests");
    outcome.inner_blocks = inner_blocks;
    let timed_payloads = envelopes.iter().filter(|(k, _)| *k != Kind::Stats).count();
    outcome.deterministic = vec![
        ("requests", envelopes.len().to_string()),
        ("payload_requests", timed_payloads.to_string()),
        ("inner_blocks", inner_blocks.to_string()),
    ];
    let basis = format!(
        "{} requests, {timed_payloads} of them payloads",
        envelopes.len()
    );
    outcome.count("serve.reply_bytes", reply_bytes as f64, basis);
    outcome.count(
        "serve.stats_rows",
        stats_rows as f64,
        "stage reports the last `stats` poll summarized",
    );
    let daemon_basis = "daemon counters at the end of the run";
    outcome.count("serve.accepted", stats.accepted as f64, daemon_basis);
    outcome.count("serve.rejected", stats.rejected as f64, daemon_basis);
    outcome.count("serve.completed", stats.completed as f64, daemon_basis);
    outcome.checks.push((
        "daemon accepted every payload".to_string(),
        if stats.accepted == sent {
            Ok(())
        } else {
            Err(format!("{} accepted, {sent} sent", stats.accepted))
        },
    ));
    Ok(outcome)
}

/// Runs the workload sized by `--seconds`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    run_sized(args, tracer, args.seconds as usize * REQUESTS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_interleaves_stats_and_the_batch() {
        let plan = plan(7, 15, 200);
        assert_eq!(plan.iter().filter(|k| **k == Kind::Stats).count(), 20);
        let payloads: Vec<Kind> = plan.into_iter().filter(|k| *k != Kind::Stats).collect();
        for cycle in payloads.chunks(CYCLE).filter(|c| c.len() == CYCLE) {
            assert_eq!(cycle[CYCLE - 1], Kind::Batch);
            let mut designs: Vec<usize> = cycle[..CYCLE - 1]
                .iter()
                .map(|k| match k {
                    Kind::Synth(d) => *d,
                    other => panic!("{other:?}"),
                })
                .collect();
            designs.sort_unstable();
            assert_eq!(designs, (0..15).collect::<Vec<_>>());
        }
    }
}
