//! `serve`: an in-process `serve::Server` over one `SnnScorer` replica of
//! the CLI `serve` default model (quick preset at V_th = 1, T = 6), loaded
//! open-loop over two connections. This is the only workload that runs
//! protocol parsing, the batcher, the worker and the socket, and it does
//! no training in the timed part.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use explore::serving::SnnScorer;
use explore::{pipeline, presets};
use nn::AdversarialTarget;
use serve::{
    ClassifyOutcome, Request, Response, RobustnessPoint, Scorer, ServeOptions, ServeSummary,
    Server, StopHandle,
};
use snn::StructuralParams;

use crate::common::{self, secs, Ctx, ObsWindow, Report, SETUP_REPEATS, THREADS};
use crate::ladder::{self, Rung};
use crate::{stats, trace};

const CONNECTIONS: usize = 2;
const MAX_BATCH: usize = 16;
/// The fixed rate latency is reported at, and the ladder's first rung.
const FIXED_RATE: f64 = 20.0;
/// Every rung sends at least this many requests, so p90 has ten beyond it.
const MIN_REQUESTS: f64 = 100.0;
/// How long after its last due time a rung waits for stragglers.
const DRAIN: Duration = Duration::from_secs(10);
/// Backlog samples taken across a rung's sending window.
const BACKLOG_SAMPLES: usize = 30;

/// Records each `classify_batch` call's duration and row count.
type ComputeLog = Arc<Mutex<Vec<(f64, usize)>>>;

/// The benchmark's wrapper around a replica: times `classify_batch`.
struct TimedScorer {
    inner: Box<dyn Scorer>,
    log: ComputeLog,
}

impl Scorer for TimedScorer {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn classify_batch(&mut self, inputs: &[&[f32]]) -> Vec<ClassifyOutcome> {
        let t = Instant::now();
        let out = trace::timed("serve", "classify_batch", 0, || {
            self.inner.classify_batch(inputs)
        });
        if let Ok(mut log) = self.log.lock() {
            log.push((secs(t) * 1e3, inputs.len()));
        }
        out
    }

    fn certify(
        &mut self,
        pixels: &[f32],
        clean: &ClassifyOutcome,
        epsilons: &[f32],
    ) -> Vec<RobustnessPoint> {
        self.inner.certify(pixels, clean, epsilons)
    }
}

/// A running server and what is needed to stop it.
struct Booted {
    addr: SocketAddr,
    stop: StopHandle,
    thread: JoinHandle<ServeSummary>,
}

impl Booted {
    fn shutdown(self) {
        self.stop.stop();
        let _ = self.thread.join();
    }
}

fn boot(scorer: &SnnScorer, log: Option<&ComputeLog>) -> Booted {
    let options = ServeOptions {
        addr: "127.0.0.1:0".into(),
        max_batch: MAX_BATCH,
        max_wait: Duration::from_millis(2),
        queue_capacity: 64,
    };
    let mut replicas = scorer.replicas(1);
    if let Some(log) = log {
        replicas = replicas
            .into_iter()
            .map(|inner| {
                Box::new(TimedScorer {
                    inner,
                    log: Arc::clone(log),
                }) as Box<dyn Scorer>
            })
            .collect();
    }
    let server = Server::bind(&options, replicas).expect("the server binds a loopback port");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.run());
    // Booted means answering: one round trip before the clock stops.
    let mut conn = TcpStream::connect(addr).expect("the server accepts");
    conn.write_all(b"{\"id\":0,\"kind\":\"ping\"}\n")
        .expect("the ping is sent");
    let mut line = String::new();
    BufReader::new(conn)
        .read_line(&mut line)
        .expect("the ping is answered");
    Booted { addr, stop, thread }
}

/// SplitMix64: the schedule's and the frame choice's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One request of a rung's schedule.
#[derive(Debug, Clone, Copy)]
struct Planned {
    id: u64,
    due_s: f64,
    frame: usize,
}

/// The open-loop schedule: `rate × duration` arrivals placed uniformly at
/// random over the window (Poisson arrivals conditioned on their count),
/// dealt to the connections in turn, each with a random frame.
fn schedule(
    seed: u64,
    rung: usize,
    rate: f64,
    duration_s: f64,
    frames: usize,
) -> Vec<Vec<Planned>> {
    let mut rng = Rng(seed ^ ((rung as u64 + 1) << 32));
    let n = (rate * duration_s).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * duration_s).collect();
    due.sort_by(f64::total_cmp);
    let mut per_conn = vec![Vec::new(); CONNECTIONS];
    for (i, due_s) in due.into_iter().enumerate() {
        per_conn[i % CONNECTIONS].push(Planned {
            id: i as u64 + 1,
            due_s,
            frame: (rng.next() % frames as u64) as usize,
        });
    }
    per_conn
}

/// The workload's inputs: frames, their wire text, and the answer each
/// must get.
struct Frames {
    /// The pixels array of each frame as JSON text.
    pixels_json: Vec<String>,
    /// `classify_batch` run directly on each single frame.
    expected: Vec<ClassifyOutcome>,
}

impl Frames {
    fn line(&self, id: u64, frame: usize) -> String {
        format!(
            "{{\"id\":{id},\"kind\":\"classify\",\"pixels\":{}}}\n",
            self.pixels_json[frame]
        )
    }
}

/// What one request saw.
#[derive(Debug, Clone)]
struct Outcome {
    due_s: f64,
    sent_s: f64,
    recv_s: Option<f64>,
    /// Answered `ok` with the right id, label and scores.
    ok: bool,
    /// Answered `ok` with another label or other scores than the direct
    /// computation: an output-check mismatch, not just a failure.
    wrong: bool,
}

/// One rung's requests, in due order, and the number of responses whose id
/// matched no outstanding request.
struct RungRun {
    outcomes: Vec<Outcome>,
    stray: usize,
}

/// Runs one rung: a generator thread and a reader thread per connection.
fn run_rung(addr: SocketAddr, frames: &Frames, plan: &[Vec<Planned>]) -> RungRun {
    let origin = Instant::now() + Duration::from_millis(20);
    let last_due = plan.iter().flatten().map(|p| p.due_s).fold(0.0, f64::max);
    let deadline = origin + Duration::from_secs_f64(last_due) + DRAIN;
    std::thread::scope(|s| {
        let conns: Vec<_> = plan
            .iter()
            .map(|reqs| {
                let stream = TcpStream::connect(addr).expect("the server accepts");
                // The generator must not add Nagle delays of its own.
                stream.set_nodelay(true).expect("TCP_NODELAY can be set");
                let mut writer = stream.try_clone().expect("the socket clones");
                let sender = s.spawn(move || {
                    let mut sent = Vec::with_capacity(reqs.len());
                    for p in reqs {
                        let due = origin + Duration::from_secs_f64(p.due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let line = frames.line(p.id, p.frame);
                        let at = Instant::now();
                        let ok = writer.write_all(line.as_bytes()).is_ok();
                        sent.push((at.saturating_duration_since(origin).as_secs_f64(), ok));
                    }
                    sent
                });
                let receiver = s.spawn(move || {
                    let mut got = Vec::with_capacity(reqs.len());
                    stream
                        .set_read_timeout(Some(Duration::from_millis(100)))
                        .expect("a read timeout can be set");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    while got.len() < reqs.len() && Instant::now() < deadline {
                        match reader.read_line(&mut line) {
                            Ok(0) => break,
                            Ok(_) if line.ends_with('\n') => {
                                let at = Instant::now()
                                    .saturating_duration_since(origin)
                                    .as_secs_f64();
                                if let Ok(resp) = serde_json::from_str::<Response>(line.trim_end())
                                {
                                    got.push((at, resp));
                                }
                                line.clear();
                            }
                            Ok(_) => {}
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) => {}
                            Err(_) => break,
                        }
                    }
                    got
                });
                (reqs, sender, receiver)
            })
            .collect();
        let mut run = RungRun {
            outcomes: Vec::new(),
            stray: 0,
        };
        for (reqs, sender, receiver) in conns {
            let sent = sender.join().expect("a generator thread panicked");
            let got = receiver.join().expect("a reader thread panicked");
            let mut answers: std::collections::HashMap<u64, (f64, Response)> =
                std::collections::HashMap::new();
            for (at, resp) in got {
                let expected = reqs.iter().any(|p| p.id == resp.id);
                if !expected || answers.contains_key(&resp.id) {
                    run.stray += 1;
                } else {
                    answers.insert(resp.id, (at, resp));
                }
            }
            for (p, (sent_s, sent_ok)) in reqs.iter().zip(sent) {
                let answer = answers.remove(&p.id);
                let served = answer.as_ref().is_some_and(|(_, r)| r.ok);
                let right = answer
                    .as_ref()
                    .is_some_and(|(_, r)| answer_matches(r, &frames.expected[p.frame]));
                run.outcomes.push(Outcome {
                    due_s: p.due_s,
                    sent_s,
                    recv_s: answer.map(|(at, _)| at),
                    ok: sent_ok && served && right,
                    wrong: served && !right,
                });
            }
        }
        run.outcomes.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
        run
    })
}

/// A served answer is right when it carries the label and scores of the
/// direct `classify_batch`, bit for bit.
fn answer_matches(resp: &Response, want: &ClassifyOutcome) -> bool {
    resp.label == Some(want.label)
        && resp.scores.as_ref().is_some_and(|s| {
            s.len() == want.scores.len()
                && s.iter()
                    .zip(&want.scores)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Latency from due time, in ms; failed requests count as infinitely late.
fn latencies_ms(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| match (o.ok, o.recv_s) {
            (true, Some(r)) => (r - o.due_s) * 1e3,
            _ => f64::INFINITY,
        })
        .collect()
}

fn summarize(rate: f64, duration_s: f64, outcomes: &[Outcome]) -> Rung {
    let outstanding: Vec<u64> = (1..=BACKLOG_SAMPLES)
        .map(|k| {
            let t = duration_s * k as f64 / BACKLOG_SAMPLES as f64;
            let sent = outcomes.iter().filter(|o| o.sent_s <= t).count();
            let done = outcomes
                .iter()
                .filter(|o| o.recv_s.is_some_and(|r| r <= t))
                .count();
            sent.saturating_sub(done) as u64
        })
        .collect();
    Rung {
        rate,
        attempted: outcomes.len() as u64,
        failed: outcomes.iter().filter(|o| !o.ok).count() as u64,
        p90_ms: stats::percentile(&latencies_ms(outcomes), 90.0).unwrap_or(f64::INFINITY),
        backlog_growing: ladder::backlog_growing(&outstanding, outcomes.len() as u64),
        achieved_rps: achieved_rate(outcomes),
    }
}

/// Requests answered per second over a rung, from its first due time to
/// its last answer.
fn achieved_rate(outcomes: &[Outcome]) -> f64 {
    let first = outcomes
        .iter()
        .map(|o| o.due_s)
        .fold(f64::INFINITY, f64::min);
    let last = outcomes.iter().filter_map(|o| o.recv_s).fold(0.0, f64::max);
    common::ratio(
        outcomes.iter().filter(|o| o.ok).count() as f64,
        last - first,
    )
}

/// How long a rung sends. The fixed-rate point takes half of `--seconds`
/// and the ladder most of the rest. Keeping the fixed point's connections
/// short-lived also keeps its p50 steady at this commit: the share of
/// answers held back by Nagle + delayed ACK grows with a connection's age
/// (a quarter of them past 5.5 ms after 150 requests per connection, past
/// 17 ms after 300), which puts the p50 of a longer rung on the edge
/// between the two modes.
fn rung_duration(ctx: &Ctx, rate: f64) -> f64 {
    let base = if rate == FIXED_RATE {
        ctx.seconds / 2.0
    } else {
        1.0
    };
    base.max(MIN_REQUESTS / rate)
}

struct Model {
    config: explore::ExperimentConfig,
    classifier: nn::Classifier<snn::SpikingCnn>,
    scorer: SnnScorer,
}

fn train(config: &explore::ExperimentConfig) -> Model {
    let data = trace::timed("dataset", "prepare_data", 0, || {
        pipeline::prepare_data(config)
    });
    let sp = StructuralParams::new(1.0, 6);
    let trained = trace::timed("explore", "train_snn", 0, || {
        pipeline::train_snn(config, &data, sp)
    });
    let classifier = trained.classifier.clone();
    Model {
        config: config.clone(),
        scorer: SnnScorer::new(config.clone(), trained.classifier),
        classifier,
    }
}

fn make_frames(model: &Model, seed: u64) -> Frames {
    let hw = model.config.image_hw;
    let digits = dataset::synth::SynthDigits::new(hw)
        .samples_per_class(16)
        .seed(seed)
        .generate();
    let pixels = digits.images().data();
    let mut direct = model.scorer.clone();
    let (pixels_json, expected) = pixels
        .chunks(hw * hw)
        .map(|frame| {
            let json = serde_json::to_string(&frame.to_vec()).expect("pixels serialize");
            // The answer is computed on the pixels exactly as the server
            // parses them off the wire.
            let wire: Request =
                serde_json::from_str(&format!("{{\"kind\":\"classify\",\"pixels\":{json}}}"))
                    .expect("a classify frame parses");
            let px = wire.pixels.expect("the frame has pixels");
            let want = direct
                .classify_batch(&[&px])
                .pop()
                .expect("one outcome per input");
            (json, want)
        })
        .unzip();
    Frames {
        pixels_json,
        expected,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut config = presets::quick();
    config.threads = THREADS;
    tensor::parallel::set_max_threads(THREADS);
    let mut report = Report::default();

    let mut booted: Option<(Model, Booted)> = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let model = train(&config);
        let server = boot(&model.scorer, None);
        report.setup_s.push(secs(t));
        if let Some((_, old)) = booted.replace((model, server)) {
            old.shutdown();
        }
    }
    let (model, server) = booted.expect("at least one set-up ran");
    let frames = make_frames(&model, ctx.seed);

    let mut fixed: Vec<Outcome> = Vec::new();
    let mut lags = Vec::new();
    let (mut wrong, mut stray) = (0, 0);
    let (rungs, best) = ladder::climb(&ladder::RATES, |rate| {
        let duration = rung_duration(ctx, rate);
        let index = ladder::RATES.iter().position(|&r| r == rate).unwrap_or(0);
        let plan = schedule(ctx.seed, index, rate, duration, frames.expected.len());
        let run = run_rung(server.addr, &frames, &plan);
        lags.extend(run.outcomes.iter().map(|o| (o.sent_s - o.due_s) * 1e3));
        wrong += run.outcomes.iter().filter(|o| o.wrong).count();
        stray += run.stray;
        let rung = summarize(rate, duration, &run.outcomes);
        if rate == FIXED_RATE {
            fixed = run.outcomes;
        }
        rung
    });
    report.attempted = rungs.iter().map(|r| r.attempted).sum();
    report.failed = rungs.iter().map(|r| r.failed).sum();
    for r in &rungs {
        eprintln!(
            "  rung {:>6.0} req/s: {} sent, {} failed, p90 {:.2} ms, backlog {}, {:.1} req/s answered",
            r.rate,
            r.attempted,
            r.failed,
            r.p90_ms,
            if r.backlog_growing { "growing" } else { "level" },
            r.achieved_rps
        );
        if r.failed > 0 {
            report.failures.push(format!(
                "{} of {} requests failed at {} req/s",
                r.failed, r.attempted, r.rate
            ));
        }
    }
    report.latency_ms = latencies_ms(&fixed);
    let best_rate = best.map_or(0.0, |i| rungs[i].achieved_rps);
    report.throughput = best_rate;
    let max_rps = best.map_or(0.0, |i| rungs[i].rate);
    let p = |q| stats::percentile(&report.latency_ms, q).unwrap_or(f64::NAN);
    report
        .named
        .push(("serve_max_rps".into(), max_rps, "req/s"));
    report
        .named
        .push(("serve_sustained_rps".into(), best_rate, "req/s"));
    report.named.push(("serve_p50_ms".into(), p(50.0), "ms"));
    report.named.push(("serve_p90_ms".into(), p(90.0), "ms"));
    report.named.push((
        "serve_generator_lag_p90_ms".into(),
        stats::percentile(&lags, 90.0).unwrap_or(f64::NAN),
        "ms",
    ));
    if wrong > 0 {
        report.mismatches.push(format!(
            "{wrong} answers differ from a direct classify_batch"
        ));
    }
    if stray > 0 {
        report
            .mismatches
            .push(format!("{stray} responses carried an unexpected id"));
    }
    server.shutdown();

    if ctx.trace {
        let untraced_p50 = stats::median(&report.latency_ms).unwrap_or(f64::NAN);
        trace::set_enabled(true);
        let log: ComputeLog = Arc::default();
        let (setup, window, outcomes) = common::with_obs(|| {
            let traced_model = train(&config);
            let setup = ObsWindow::now();
            let server = boot(&model.scorer, Some(&log));
            drop(traced_model);
            let duration = rung_duration(ctx, FIXED_RATE);
            let plan = schedule(ctx.seed, 0, FIXED_RATE, duration, frames.expected.len());
            let outcomes = run_rung(server.addr, &frames, &plan).outcomes;
            server.shutdown();
            let window = ObsWindow::now().since(&setup);
            (setup, window, outcomes)
        });
        let lines: Vec<String> = (0..frames.expected.len())
            .map(|i| frames.line(i as u64, i))
            .collect();
        for (op, line) in lines.iter().enumerate() {
            let _ = trace::timed("serve", "parse_request", op as u64, || {
                serde_json::from_str::<Request>(line)
            });
        }
        // A full micro-batch of frames, forwarded alone.
        let hw = model.config.image_hw;
        let digits = dataset::synth::SynthDigits::new(hw)
            .samples_per_class(2)
            .seed(ctx.seed)
            .generate();
        let x = digits.images();
        let x = tensor::Tensor::from_vec(
            x.data()[..MAX_BATCH * hw * hw].to_vec(),
            &[MAX_BATCH, 1, hw, hw],
        );
        for _ in 0..20 {
            let _ = trace::timed("nn", "logits", 0, || model.classifier.logits(&x));
        }
        let spans = trace::spans();
        let calls = log.lock().expect("compute log poisoned").clone();
        let compute_ms: Vec<f64> = calls.iter().map(|c| c.0).collect();
        let rows: f64 = calls.iter().map(|c| c.1 as f64).sum();
        let client = latencies_ms(&outcomes);
        let client_p50 = stats::median(&client).unwrap_or(f64::NAN);
        let compute_p50 = stats::median(&compute_ms).unwrap_or(0.0);
        let layers = &mut report.layers;
        window.program_layers(compute_ms.iter().sum::<f64>() / 1e3, layers);
        layers.insert("nn.train_epoch_s", setup.span_mean_s("train/epoch"));
        layers.insert(
            "dataset.prepare_s",
            trace::durations_s(&spans, "prepare_data")[0],
        );
        layers.insert(
            "snn.forward_ms",
            stats::median(&trace::durations_s(&spans, "logits")).unwrap_or(0.0) * 1e3,
        );
        layers.insert("serve.compute_ms", compute_p50);
        layers.insert("serve.batch_rows", common::ratio(rows, calls.len() as f64));
        layers.insert("serve.outside_model_ms", client_p50 - compute_p50);
        layers.insert(
            "serve.parse_us",
            stats::median(&trace::durations_s(&spans, "parse_request")).unwrap_or(0.0) * 1e6,
        );
        let lag: Vec<f64> = outcomes
            .iter()
            .map(|o| (o.sent_s - o.due_s) * 1e3)
            .collect();
        layers.insert(
            "serve.generator_lag_ms",
            stats::percentile(&lag, 90.0).unwrap_or(0.0),
        );
        layers.insert(
            "obs.trace_overhead_share",
            (client_p50 - untraced_p50) / untraced_p50,
        );
        trace::set_enabled(false);
    }
    report
}
