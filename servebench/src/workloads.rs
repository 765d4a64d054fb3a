//! The workloads, the answer checker, and the end-to-end metrics.

use crate::client::{request_bytes, Client, REQUEST_TIMEOUT};
use crate::load::{closed_loop, open_loop, PhaseRun, Until};
use crate::stats::{self, tail_percentile, Percentile};
use crate::streams::{self, Streams, HOT_POOL, WARMUP_BASE};
use crate::system::{Reference, Served, WORLD_SEED};
use crate::trace::Tracer;
use ann::AnnConfig;
use hisrect::{CandidateConfig, CandidateSet};
use ingest::{CandidateMirror, IngestConfig, Ingestor};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use twitter_sim::{SimConfig, StreamCursor, TweetStream};

/// Offered `/judge` rate of `judge_hot`'s fixed-rate phase: about half
/// of the closed-loop rate with one request in flight on each of the
/// two connections (about 880 req/s on the parent commit).
pub const FIXED_RATE: f64 = 400.0;
/// Offered `/judge` rate beside the ingest loop on `ingest_reload`,
/// over one connection.
pub const INGEST_JUDGE_RATE: f64 = 200.0;
/// Ingested events between mirror syncs. A sync's cost is embedding and
/// inserting the profiles materialized since the last one (about one
/// per two events); its sweep over every user costs about 8 us a call.
/// So the cadence barely moves the ingest rate, and 250 events keeps the
/// mirror within one sync (10–15 ms of ingest) of the pipeline.
pub const SYNC_EVERY: u64 = 250;
/// Ingested events between `POST /reload`s: 2–3 s of ingest per reload
/// of about 0.8 s, so a 30 s phase makes 8–11 reloads (a 15 s traced
/// half about 5) and ingest keeps about four fifths of the wall time its
/// rate is measured over. The repo's own ingest loops reload every
/// 400–800 events, but each of their reloads follows a fine-tune of
/// several seconds, which this benchmark leaves out; at 800 events with
/// no fine-tune a 30 s phase made 45 reloads and ingested for 2.3 s.
pub const RELOAD_EVERY: u64 = 25_000;
/// Retention window of the ingest pipeline and its mirror, seconds of
/// stream time, so a run's ingest state stays bounded.
pub const INGEST_WINDOW_S: i64 = 3 * 86_400;
/// Warm-up requests before timing: four rounds of the hot pool.
pub const WARMUP_REQUESTS: u64 = 256;
/// Size of the fixed `/candidates` sample `recall_at_10` is measured over.
pub const RECALL_QUERIES: usize = 600;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop `/judge` over a 64-profile pool: cache-resident.
    JudgeHot,
    /// Streaming ingest with periodic `/reload` beside open-loop `/judge`.
    IngestReload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::JudgeHot, Workload::IngestReload];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JudgeHot => "judge_hot",
            Workload::IngestReload => "ingest_reload",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Request and answer counts of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent and ingest events offered.
    pub attempted: u64,
    /// Failed, refused, timed-out or wrong.
    pub failed: u64,
    /// Answers that differ from the reference (a subset of `failed`).
    pub wrong: u64,
    /// 503/504 answers carrying `x-hisrect-shed` (a subset of `failed`).
    pub shed: u64,
    /// The first problem seen, for the error report.
    pub first_problem: Option<String>,
}

impl Tally {
    fn problem(&mut self, msg: String) {
        self.failed += 1;
        if self.first_problem.is_none() {
            self.first_problem = Some(msg);
        }
    }

    /// Failed share of attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every answer matched the reference.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// Checks every answer of a phase against `expected(k)`. Returns one
/// flag per record: answered correctly.
pub fn check<'e>(
    run: &PhaseRun,
    expected: impl Fn(u64) -> &'e str,
    tally: &mut Tally,
) -> Vec<bool> {
    run.records
        .iter()
        .map(|r| {
            tally.attempted += 1;
            match &r.reply {
                Err(e) => {
                    tally.problem(format!("request {}: transport error: {e}", r.k));
                    false
                }
                Ok(reply) if reply.status == 200 => {
                    if reply.body == expected(r.k) {
                        true
                    } else {
                        tally.wrong += 1;
                        tally.problem(format!(
                            "request {}: answer differs from the reference: {}",
                            r.k, reply.body
                        ));
                        false
                    }
                }
                Ok(reply) => {
                    if matches!(reply.status, 503 | 504) && reply.shed.is_some() {
                        tally.shed += 1;
                    }
                    tally.problem(format!(
                        "request {}: status {}: {}",
                        r.k, reply.status, reply.body
                    ));
                    false
                }
            }
        })
        .collect()
}

/// Latencies with every failed request charged the client timeout, so
/// a failure exceeds any limit; ascending.
pub fn charged_latencies(run: &PhaseRun, ok: &[bool]) -> Vec<f64> {
    let timeout_ms = REQUEST_TIMEOUT.as_secs_f64() * 1e3;
    let mut v: Vec<f64> = run
        .records
        .iter()
        .zip(ok)
        .map(|(r, &ok)| if ok { r.latency_ms } else { timeout_ms })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// p50.
    pub p50: Percentile,
    /// p99, or the highest quantile with ten samples beyond it.
    pub p99: Percentile,
}

/// p50 and p99 of a phase, failures charged.
pub fn latency(run: &PhaseRun, ok: &[bool]) -> Result<Latency, String> {
    let v = charged_latencies(run, ok);
    let too_few = || format!("only {} timed requests: no supported percentile", v.len());
    Ok(Latency {
        p50: tail_percentile(&v, 0.5).ok_or_else(too_few)?,
        p99: tail_percentile(&v, 0.99).ok_or_else(too_few)?,
    })
}

/// Median over the phase's whole seconds of the requests answered
/// correctly in each, so a burst of host noise moves one second, not the
/// run's figure.
pub fn goodput_per_s(run: &PhaseRun, ok: &[bool]) -> f64 {
    let done: Vec<(f64, f64)> = run
        .records
        .iter()
        .zip(ok)
        .filter(|(_, &ok)| ok)
        .map(|(r, _)| (r.done_s, 1.0))
        .collect();
    let seconds = stats::per_second(&done, run.elapsed_s);
    if seconds.is_empty() {
        // Under a second: the phase's mean rate.
        return done.len() as f64 / run.elapsed_s;
    }
    stats::median(&seconds)
}

/// Request `k` of the hot `/judge` mix, as the bytes sent.
pub fn request(streams: &Streams, k: u64) -> Vec<u8> {
    let (i, j) = streams.hot_pair(k);
    request_bytes("POST", "/judge", &streams::judge_body(i, j))
}

/// Expected `/judge` bodies of the hot mix, precomputed so checking an
/// open-loop phase is a lookup.
pub struct Answers {
    hot: HashMap<(usize, usize), String>,
}

impl Answers {
    /// Precomputes every ordered pair of hot-pool profiles.
    pub fn new(streams: &Streams, reference: &Reference) -> Self {
        let pool = streams.hot_pool();
        let mut hot = HashMap::with_capacity(HOT_POOL * HOT_POOL);
        for &i in pool {
            for &j in pool {
                if i != j {
                    hot.insert((i, j), reference.judge_body(i, j));
                }
            }
        }
        Self { hot }
    }

    /// The expected body of request `k` of the hot mix.
    pub fn expected(&self, streams: &Streams, k: u64) -> &str {
        &self.hot[&streams.hot_pair(k)]
    }
}

/// Shared state of one run.
pub struct Ctx<'a> {
    /// `--seconds`.
    pub seconds: f64,
    /// The system under test.
    pub served: &'a Served,
    /// The reference.
    pub reference: &'a Reference,
    /// The run's request streams.
    pub streams: Streams,
    /// Load-generating connections.
    pub conns: usize,
    /// Expected answers.
    pub answers: Answers,
    /// Counts over every timed request.
    pub tally: Tally,
    /// Next unused request index per stream, so phases never resend.
    next_k: u64,
}

impl<'a> Ctx<'a> {
    /// Builds the context (precomputes the hot answers).
    pub fn new(
        seed: u64,
        seconds: f64,
        served: &'a Served,
        reference: &'a Reference,
        conns: usize,
    ) -> Self {
        let streams = Streams::new(seed, served.dataset.profiles.len());
        let answers = Answers::new(&streams, reference);
        Self {
            seconds,
            served,
            reference,
            streams,
            conns,
            answers,
            tally: Tally::default(),
            next_k: 0,
        }
    }

    /// Checks a finished phase against the reference and retires its
    /// request indices.
    fn finish_phase(&mut self, run: PhaseRun) -> (PhaseRun, Vec<bool>) {
        self.next_k += run.records.len() as u64 + 1;
        let (answers, streams) = (&self.answers, &self.streams);
        let ok = check(&run, |k| answers.expected(streams, k), &mut self.tally);
        (run, ok)
    }
}

/// Runs the untimed warm-up: every hot-pool profile is cached, in pairs
/// around the pool, and every connection has been used. Warm-up answers
/// must be 200 but are not counted.
pub fn warm_up(ctx: &Ctx) -> Result<(), String> {
    let pool = ctx.streams.hot_pool();
    let make = |k: u64| {
        let m = (k - WARMUP_BASE) as usize % HOT_POOL;
        let (i, j) = (pool[m], pool[(m + 1) % HOT_POOL]);
        request_bytes("POST", "/judge", &streams::judge_body(i, j))
    };
    let run = closed_loop(
        ctx.served.addr(),
        ctx.conns,
        Until::Count(WARMUP_REQUESTS),
        WARMUP_BASE,
        &Tracer::new(false),
        "warmup",
        &make,
    )?;
    for r in &run.records {
        match &r.reply {
            Ok(reply) if reply.status == 200 => {}
            Ok(reply) => return Err(format!("warm-up: status {}: {}", reply.status, reply.body)),
            Err(e) => return Err(format!("warm-up: {e}")),
        }
    }
    Ok(())
}

/// An open-loop phase of the hot `/judge` mix at `rate` over every
/// connection.
pub fn open_phase(
    ctx: &mut Ctx,
    rate: f64,
    secs: f64,
    tracer: &Tracer,
) -> Result<(PhaseRun, Vec<bool>), String> {
    let streams = &ctx.streams;
    let run = open_loop(
        ctx.served.addr(),
        ctx.conns,
        rate,
        Duration::from_secs_f64(secs),
        ctx.next_k,
        tracer,
        "client.request",
        &|k| request(streams, k),
    )?;
    Ok(ctx.finish_phase(run))
}

/// A closed-loop phase of the hot `/judge` mix over every connection:
/// one request in flight per connection.
pub fn closed_phase(
    ctx: &mut Ctx,
    secs: f64,
    tracer: &Tracer,
) -> Result<(PhaseRun, Vec<bool>), String> {
    let streams = &ctx.streams;
    let run = closed_loop(
        ctx.served.addr(),
        ctx.conns,
        Until::Elapsed(Duration::from_secs_f64(secs)),
        ctx.next_k,
        tracer,
        "client.request",
        &|k| request(streams, k),
    )?;
    Ok(ctx.finish_phase(run))
}

/// What the ingest loop of `ingest_reload` did.
#[derive(Debug, Default)]
pub struct IngestRun {
    /// Events offered.
    pub events: u64,
    /// Seconds spent ingesting (offer + sync), reload waits excluded.
    pub active_s: f64,
    /// Mirror syncs made.
    pub syncs: u64,
    /// Wall time of each `/reload`, seconds.
    pub reload_s: Vec<f64>,
}

impl IngestRun {
    /// Mean events applied per second of ingest time. Not a median over
    /// whole seconds: events arrive in bursts between syncs (2–3 ms of
    /// offers, then 10–15 ms of sync), so a one-second bin holds a whole
    /// number of bursts and its median steps by about 3%.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.active_s
    }
}

/// The ingest pipeline over the run's seeded stream, embedding new
/// profiles with the reference (same model file as the server).
pub struct IngestLoop {
    stream: TweetStream,
    ing: Ingestor,
    mirror: CandidateMirror,
}

impl IngestLoop {
    /// A fresh pipeline over the served world's tweet stream, starting at
    /// `start_day` (sequence numbers restart at 0 there).
    pub fn new(start_day: u64) -> Self {
        let cfg = SimConfig::lv_like(WORLD_SEED);
        let delta_t = cfg.delta_t;
        let start = StreamCursor {
            day: start_day,
            emitted_in_day: 0,
            seq: 0,
        };
        let stream = TweetStream::resume(cfg, 0, start);
        let ing = Ingestor::new(
            stream.world().clone(),
            stream.friendships().to_vec(),
            stream.config().n_users,
            IngestConfig {
                delta_t,
                window_secs: INGEST_WINDOW_S,
                ..IngestConfig::default()
            },
        );
        let mirror = CandidateMirror::new(
            AnnConfig {
                delta_t: Some(delta_t),
                ..CandidateConfig::default().ann
            },
            CandidateMirror::bounds_for(stream.world(), 0.05),
            stream.config().n_users,
        );
        Self {
            stream,
            ing,
            mirror,
        }
    }

    /// Pulls the next stream event.
    pub fn next_event(&mut self) -> twitter_sim::StreamEvent {
        self.stream.next_event()
    }

    /// Offers one event to the pipeline.
    pub fn offer(&mut self, ev: twitter_sim::StreamEvent) {
        self.ing.offer(ev);
    }

    /// Syncs the mirror, evicting what left the retention window;
    /// `embed` maps a profile to its `E'` embedding.
    pub fn sync(&mut self, embed: impl Fn(&twitter_sim::Profile) -> Vec<f32>) -> usize {
        let cutoff = self.ing.watermark() - INGEST_WINDOW_S;
        self.mirror.sync(&self.ing, cutoff, embed)
    }

    /// Flushes the pipeline and checks delivery: every offered event
    /// applied, no gaps, no duplicates.
    pub fn finish(&mut self, offered: u64) -> Result<(), String> {
        self.ing.flush();
        let (applied, dups, gaps) = self.ing.delivery_stats();
        if applied != offered || dups != 0 || gaps != 0 {
            return Err(format!(
                "ingest delivery: offered {offered}, applied {applied}, dups {dups}, gaps {gaps}"
            ));
        }
        Ok(())
    }

    /// Profiles materialized so far.
    pub fn n_profiles(&self) -> usize {
        self.ing.n_profiles()
    }
}

/// `E'` embedding of one profile under the reference model.
pub fn embed(reference: &Reference, p: &twitter_sim::Profile) -> Vec<f32> {
    let svc = &reference.model.service;
    svc.judge_embeddings(&[svc.features_for(p)])
        .pop()
        .expect("one embedding per feature")
}

/// Posts `/reload` and checks the answer names generation `expected`.
pub fn reload(client: &mut Client, expected: u64) -> Result<f64, String> {
    let t = Instant::now();
    let reply = client
        .post("/reload", "")
        .map_err(|e| format!("/reload: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let want = format!("{{\"generation\":{expected}}}");
    if reply.status != 200 || reply.body != want {
        return Err(format!(
            "/reload answered {} `{}`, expected `{want}`",
            reply.status, reply.body
        ));
    }
    Ok(secs)
}

/// `ingest_reload`'s timed phase: the ingest loop on this thread (with a
/// `/reload` every [`RELOAD_EVERY`] events) beside an open-loop `/judge`
/// connection at [`INGEST_JUDGE_RATE`].
pub fn ingest_phase(
    ctx: &mut Ctx,
    secs: f64,
    generation: &mut u64,
    tracer: &Tracer,
) -> Result<(PhaseRun, Vec<bool>, IngestRun), String> {
    let first = ctx.next_k;
    let addr = ctx.served.addr();
    let duration = Duration::from_secs_f64(secs);
    let mut reloader = Client::new(addr);
    reloader.connect().map_err(|e| format!("connect: {e}"))?;
    let mut pipeline = IngestLoop::new(ctx.streams.ingest_start_day());
    let reference = ctx.reference;
    let (judged, ingested) = std::thread::scope(|scope| {
        let streams = &ctx.streams;
        let judge = scope.spawn(move || {
            open_loop(
                addr,
                1,
                INGEST_JUDGE_RATE,
                duration,
                first,
                tracer,
                "client.request",
                &|k| request(streams, k),
            )
        });
        let mut out = IngestRun::default();
        let start = Instant::now();
        let mut reload_wait = Duration::ZERO;
        let mut result = Ok(());
        while start.elapsed() < duration {
            let ev = pipeline.next_event();
            pipeline.offer(ev);
            out.events += 1;
            if out.events % SYNC_EVERY == 0 {
                pipeline.sync(|p| embed(reference, p));
                out.syncs += 1;
            }
            if out.events % RELOAD_EVERY == 0 {
                *generation += 1;
                match reload(&mut reloader, *generation) {
                    Ok(s) => {
                        reload_wait += Duration::from_secs_f64(s);
                        out.reload_s.push(s);
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
        out.active_s = (start.elapsed() - reload_wait).as_secs_f64();
        let judged = judge.join().expect("judge client thread panicked");
        (judged, result.map(|()| out))
    });
    let judged = judged?;
    let ingested = ingested?;
    eprintln!(
        "ingest: {} events, {:.2} s ingesting, {} syncs, {} reloads",
        ingested.events,
        ingested.active_s,
        ingested.syncs,
        ingested.reload_s.len()
    );
    if ingested.reload_s.is_empty() {
        return Err(format!(
            "the ingest phase made no /reload: {} events in {secs} s, one every {RELOAD_EVERY}",
            ingested.events
        ));
    }
    pipeline.finish(ingested.events)?;
    ctx.tally.attempted += ingested.events;
    let (judged, ok) = ctx.finish_phase(judged);
    Ok((judged, ok, ingested))
}

/// Served top-10 against `AnnIndex::exhaustive` on the reference index
/// (the same index the server built), over the fixed query sample. The
/// oracle is limited to the radius the service searches, so the ratio
/// measures what the approximate search loses, not the radius itself.
pub fn recall_at_10(ctx: &mut Ctx) -> Result<f64, String> {
    let mut client = Client::new(ctx.served.addr());
    let index = ctx.reference.model.candidates.index();
    let radius = CandidateConfig::default().radius_m;
    let (mut sum, mut counted) = (0.0, 0usize);
    for i in streams::recall_sample(index.len(), RECALL_QUERIES) {
        ctx.tally.attempted += 1;
        let reply = match client.post("/candidates", &streams::candidates_body(i)) {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                ctx.tally
                    .problem(format!("recall query {i}: status {}", r.status));
                continue;
            }
            Err(e) => {
                ctx.tally.problem(format!("recall query {i}: {e}"));
                continue;
            }
        };
        if reply.body != ctx.reference.candidates_body(i) {
            ctx.tally.wrong += 1;
            ctx.tally.problem(format!(
                "recall query {i}: answer differs from the reference"
            ));
            continue;
        }
        let served: CandidateSet =
            serde_json::from_str(&reply.body).map_err(|e| format!("candidates body: {e}"))?;
        let item = index.get(i as u32).expect("query profiles are indexed");
        let oracle: Vec<u32> = index
            .exhaustive(item.ts, &item.embedding, index.len())
            .into_iter()
            .filter(|n| n.id as usize != i)
            .filter(|n| {
                let p = index.get(n.id).expect("oracle ids are indexed").point;
                p.haversine_m(&item.point) <= radius
            })
            .take(streams::TOP_K)
            .map(|n| n.id)
            .collect();
        if oracle.is_empty() {
            continue;
        }
        let hits = oracle
            .iter()
            .filter(|&&id| served.candidates.iter().any(|c| c.j == id as usize))
            .count();
        sum += hits as f64 / oracle.len() as f64;
        counted += 1;
    }
    if counted == 0 {
        return Err("no recall query had a neighbour within the radius".into());
    }
    Ok(sum / counted as f64)
}

/// The end-to-end result of one untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Latency of the workload's primary request, ms.
    pub latency: Latency,
    /// The workload's primary work rate, per second.
    pub throughput: f64,
    /// What `throughput` counts.
    pub throughput_label: &'static str,
    /// Served recall@10 over the fixed sample.
    pub recall: f64,
    /// Median `/reload` wall time, seconds (`ingest_reload` only).
    pub reload_s: Option<f64>,
    /// Open-loop lateness growth of the latency phase, ms (0 when closed).
    pub lateness_growth_ms: f64,
}

/// Runs `workload`'s timed phases for `ctx.seconds` and the shared
/// measurements after them.
pub fn run_end_to_end(ctx: &mut Ctx, workload: Workload) -> Result<EndToEnd, String> {
    let off = Tracer::new(false);
    let mut generation = 1u64;
    let secs = ctx.seconds;
    let lateness = |run: &PhaseRun| {
        let l: Vec<f64> = run.records.iter().map(|r| r.lateness_ms).collect();
        stats::lateness_growth_ms(&l)
    };
    let (lat, throughput, label, growth, reloads) = match workload {
        Workload::JudgeHot => {
            // Half the time at the fixed offered rate (latency), half
            // closed loop. The closed-loop rate is capped by the two
            // requests in flight and the batcher's flush deadline, not
            // by server CPU: fewer than 16 queued jobs wait the deadline.
            let (run, ok) = open_phase(ctx, FIXED_RATE, secs / 2.0, &off)?;
            let lat = latency(&run, &ok)?;
            let growth = lateness(&run);
            let (run, ok) = closed_phase(ctx, secs / 2.0, &off)?;
            let rate = goodput_per_s(&run, &ok);
            let label = "judge req/s with one request in flight per connection";
            (lat, rate, label, growth, Vec::new())
        }
        Workload::IngestReload => {
            let (run, ok, ingested) = ingest_phase(ctx, secs, &mut generation, &off)?;
            let rate = ingested.events_per_s();
            let growth = lateness(&run);
            (
                latency(&run, &ok)?,
                rate,
                "ingested events/s, mean over ingest time",
                growth,
                ingested.reload_s,
            )
        }
    };
    let recall = recall_at_10(ctx)?;
    Ok(EndToEnd {
        latency: lat,
        throughput,
        throughput_label: label,
        recall,
        reload_s: (!reloads.is_empty()).then(|| stats::median(&reloads)),
        lateness_growth_ms: growth,
    })
}
