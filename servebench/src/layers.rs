//! The traced run: the workload's headline phase once untraced and once
//! traced, then replays of the workload's own inputs through each
//! layer's public functions, timed by spans in this file.

use crate::load::PhaseRun;
use crate::stats::{self, median, tail_percentile};
use crate::streams::{self, TOP_K};
use crate::system::{Reference, SetupTimes};
use crate::trace::{by_name, NameStats, Tracer};
use crate::workloads::{
    self, embed, ingest_phase, open_phase, Ctx, Workload, FIXED_RATE, SYNC_EVERY,
};
use hisrect::{profile_fingerprint, CandidateService};
use serve::batcher::JudgeJob;
use serve::cache::FeatureCache;
use serve::http::{try_parse_request, Limits, ParseStatus, Response};
use serve::{Batcher, ServeConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Events the ingest replay streams (the first events of the workload's
/// own stream).
pub const INGEST_REPLAY_EVENTS: u64 = 20_000;
/// Length of the batcher queue-wait replay.
pub const QUEUE_REPLAY_SECS: f64 = 1.0;
/// Calls per loop-timed replay of a sub-microsecond function.
const MICRO_CALLS: usize = 4_000;
/// Profiles and queries per per-call replay.
const SAMPLE: usize = 256;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Runs one headline phase of `secs`: the phase, its per-request flags,
/// its headline figure (the end-to-end latency or rate the workload is
/// about) and whether lower is better.
fn headline_phase(
    ctx: &mut Ctx,
    workload: Workload,
    generation: &mut u64,
    secs: f64,
    tracer: &Tracer,
) -> Result<(PhaseRun, Vec<bool>, f64, bool), String> {
    Ok(match workload {
        Workload::JudgeHot => {
            let (run, ok) = open_phase(ctx, FIXED_RATE, secs, tracer)?;
            let p50 = stats::nearest_rank(&workloads::charged_latencies(&run, &ok), 0.5);
            (run, ok, p50, true)
        }
        Workload::IngestReload => {
            let (run, ok, ingested) = ingest_phase(ctx, secs, generation, tracer)?;
            (run, ok, ingested.events_per_s(), false)
        }
    })
}

/// Times `n` calls of `f` inside one span; returns microseconds per call.
fn per_call_us(tracer: &Tracer, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let open = tracer.open(name, tracer.new_trace(), None);
    for k in 0..n {
        f(k);
    }
    tracer.close(open) as f64 / n.max(1) as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn first_distinct(seq: &[usize], n: usize) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    seq.iter()
        .copied()
        .filter(|i| seen.insert(*i))
        .take(n)
        .collect()
}

/// The traced run of `workload`: every per-layer metric.
pub fn run_traced(
    ctx: &mut Ctx,
    workload: Workload,
    tracer: &Tracer,
    setup: &SetupTimes,
) -> Result<Vec<Metric>, String> {
    let off = Tracer::new(false);
    let mut generation = 1u64;
    let half = ctx.seconds / 2.0;
    let (_, _, untraced, lower_better) =
        headline_phase(ctx, workload, &mut generation, half, &off)?;

    // The traced phase: server counters are read as deltas around it,
    // and the obs registry behind `/metrics` is cleared at its start.
    let server = &ctx.served.server;
    obs::reset();
    let (hits0, misses0) = server.cache_stats();
    let (batches0, jobs0) = server.batch_stats();
    let (run, ok, traced, _) = headline_phase(ctx, workload, &mut generation, half, tracer)?;
    let (hits1, misses1) = ctx.served.server.cache_stats();
    let (batches1, jobs1) = ctx.served.server.batch_stats();
    let handler = obs::histogram("serve/request_latency_ms");

    let overhead_pct = if lower_better {
        (traced - untraced) / untraced * 100.0
    } else {
        (untraced - traced) / untraced * 100.0
    };
    let charged = workloads::charged_latencies(&run, &ok);
    let client_p50 = stats::nearest_rank(&charged, 0.5);
    let (handler_p50, handler_p99) = handler
        .map(|h| (h.quantile(0.5), h.quantile(0.99)))
        .unwrap_or((0.0, 0.0));
    let shed = run
        .records
        .iter()
        .filter(|r| {
            r.reply
                .as_ref()
                .is_ok_and(|x| matches!(x.status, 503 | 504) && x.shed.is_some())
        })
        .count();
    let mut lateness: Vec<f64> = run.records.iter().map(|r| r.lateness_ms).collect();
    lateness.sort_by(f64::total_cmp);
    let lateness_p99 = tail_percentile(&lateness, 0.99).map_or(0.0, |p| p.value);

    let reference = ctx.reference;
    let profiles: Vec<usize> = run
        .records
        .iter()
        .flat_map(|r| {
            let (i, j) = ctx.streams.hot_pair(r.k);
            [i, j]
        })
        .collect();
    let sample = first_distinct(&profiles, SAMPLE);

    // serve.http: framing of the phase's own requests and answers.
    let raws: Vec<Vec<u8>> = run
        .records
        .iter()
        .take(SAMPLE)
        .map(|r| workloads::request(&ctx.streams, r.k))
        .collect();
    let limits = Limits::default();
    let parse_us = per_call_us(tracer, "serve.http.parse", MICRO_CALLS, |k| {
        let raw = &raws[k % raws.len()];
        match try_parse_request(std::hint::black_box(raw), &limits) {
            Ok(ParseStatus::Complete(req, _)) => {
                std::hint::black_box(req);
            }
            other => panic!("replayed request did not parse: {other:?}"),
        }
    });
    let bodies: Vec<&str> = run
        .records
        .iter()
        .filter_map(|r| r.reply.as_ref().ok().map(|x| x.body.as_str()))
        .take(SAMPLE)
        .collect();
    let encode_us = per_call_us(tracer, "serve.http.encode", MICRO_CALLS, |k| {
        let resp = Response::json(200, bodies[k % bodies.len()]);
        std::hint::black_box(resp.to_bytes(true));
    });

    // serve.cache: the phase's profile lookups on a default-size cache.
    let corpus = &ctx.served.dataset;
    let keys: Vec<(u64, u32, u64)> = profiles
        .iter()
        .map(|&i| {
            let p = corpus.profile(i);
            (1, p.uid, profile_fingerprint(p))
        })
        .collect();
    let cache = FeatureCache::new(ServeConfig::default().cache_capacity);
    let dummy = Arc::new(vec![0.0f32; reference.model.service.feat_dim()]);
    let cache_get_us = per_call_us(tracer, "serve.cache.get", keys.len(), |k| {
        if cache.get(std::hint::black_box(&keys[k])).is_none() {
            cache.insert(keys[k], Arc::clone(&dummy));
        }
    });

    // core: Fv + token lookup, then BiLSTM-C + FFN, per profile; the
    // thread's tensor pool counters are published around it.
    let model = reference.model.service.model();
    let pois = reference.model.service.pois();
    tensor::pool::publish_obs();
    let pool0 = pool_counters();
    for &i in &sample {
        let trace = tracer.new_trace();
        let root = tracer.open("core.features_for", trace, None);
        let open = tracer.open("core.profile_input", trace, Some(root.id()));
        let input = model.profile_input(pois, corpus.profile(i), Default::default());
        tracer.close(open);
        let open = tracer.open("core.featurize", trace, Some(root.id()));
        std::hint::black_box(model.featurize_inputs(&[&input]));
        tracer.close(open);
        tracer.close(root);
    }
    tensor::pool::publish_obs();
    let pool1 = pool_counters();
    let pool_hit_ratio = ratio(
        (pool1.0 - pool0.0) as f64,
        ((pool1.0 - pool0.0) + (pool1.1 - pool0.1)) as f64,
    );

    // core.judge: the batched forward pass at three batch sizes.
    let feats = reference.features();
    let pairs: Vec<(&[f32], &[f32])> = profiles
        .chunks(2)
        .filter(|c| c.len() == 2)
        .take(32)
        .map(|c| (feats[c[0]].as_slice(), feats[c[1]].as_slice()))
        .collect();
    let svc = &reference.model.service;
    let mut judge_us = Vec::new();
    for (name, b) in [
        ("core.judge_batch.b1", 1usize),
        ("core.judge_batch.b2", 2),
        ("core.judge_batch.b32", 32),
    ] {
        let b = b.min(pairs.len()).max(1);
        let calls = MICRO_CALLS / b;
        let us = per_call_us(tracer, name, calls, |k| {
            let start = (k * b) % (pairs.len() - b + 1);
            std::hint::black_box(svc.judge_features_batch(&pairs[start..start + b]));
        });
        judge_us.push(us / b as f64);
    }

    // core.features_many over the population.
    let refs: Vec<&twitter_sim::Profile> = corpus.profiles.iter().collect();
    let t = tracer.open("core.features_many", tracer.new_trace(), None);
    std::hint::black_box(svc.features_many(&refs, Default::default()));
    let features_many_ms = tracer.close(t) as f64 / 1e6;

    // Candidates and the ANN index under them, on the recall sample's
    // queries.
    let queries = streams::recall_sample(corpus.profiles.len(), SAMPLE);
    let cands = &reference.model.candidates;
    let index = cands.index();
    let radius = hisrect::CandidateConfig::default().radius_m;
    for &i in &queries {
        let trace = tracer.new_trace();
        let open = tracer.open("core.candidates", trace, None);
        std::hint::black_box(cands.candidates(svc, i, TOP_K));
        tracer.close(open);
        let item = index.get(i as u32).expect("query profiles are indexed");
        let open = tracer.open("ann.query", trace, None);
        std::hint::black_box(index.query(&item.point, item.ts, &item.embedding, TOP_K + 1, radius));
        tracer.close(open);
        let open = tracer.open("ann.exhaustive", trace, None);
        std::hint::black_box(index.exhaustive(item.ts, &item.embedding, TOP_K + 1));
        tracer.close(open);
    }
    let t = tracer.open("core.candidates_build", tracer.new_trace(), None);
    std::hint::black_box(CandidateService::build(svc, corpus));
    let candidates_build_ms = tracer.close(t) as f64 / 1e6;
    let items = index.items().to_vec();
    let t = tracer.open("ann.build", tracer.new_trace(), None);
    std::hint::black_box(ann::AnnIndex::build(items, index.config().clone()));
    let ann_build_ms = tracer.close(t) as f64 / 1e6;

    // serve.registry: reloads of the benchmark's own registry.
    let mut reload_ms = Vec::new();
    for _ in 0..2 {
        let t = tracer.open("serve.registry.reload", tracer.new_trace(), None);
        reference
            .registry
            .reload(None)
            .map_err(|e| format!("reference reload: {e}"))?;
        reload_ms.push(tracer.close(t) as f64 / 1e6);
    }

    let queue_wait_ms = queue_wait_replay(ctx, tracer, judge_us[0])?;
    let ingest = ingest_replay(ctx.streams.ingest_start_day(), reference, tracer)?;

    let spans = tracer.spans();
    let names = by_name(&spans);
    let stat = |n: &str| names.get(n).copied().unwrap_or_default();
    let mean_ms = |n: &str| stat(n).mean_us() / 1e3;
    let speedup = ratio(
        stat("ann.exhaustive").mean_us(),
        stat("ann.query").mean_us(),
    );
    let sync = stat("ingest.sync");

    Ok(vec![
        ("serve.http.parse_us", parse_us, "us"),
        ("serve.http.encode_us", encode_us, "us"),
        ("serve.handler_p50_ms", handler_p50, "ms"),
        ("serve.handler_p99_ms", handler_p99, "ms"),
        ("serve.outside_handler_ms", client_p50 - handler_p50, "ms"),
        (
            "serve.batcher.batch_size_mean",
            ratio((jobs1 - jobs0) as f64, (batches1 - batches0) as f64),
            "count",
        ),
        ("serve.batcher.queue_wait_ms", queue_wait_ms, "ms"),
        (
            "serve.cache.hit_ratio",
            ratio(
                (hits1 - hits0) as f64,
                ((hits1 - hits0) + (misses1 - misses0)) as f64,
            ),
            "ratio",
        ),
        ("serve.cache.get_us", cache_get_us, "us"),
        (
            "serve.shed_ratio",
            ratio(shed as f64, run.records.len() as f64),
            "ratio",
        ),
        ("serve.registry.reload_ms", median(&reload_ms), "ms"),
        (
            "core.profile_input_us",
            stat("core.profile_input").mean_us(),
            "us",
        ),
        ("core.featurize_us", stat("core.featurize").mean_us(), "us"),
        ("core.features_many_ms", features_many_ms, "ms"),
        ("core.judge_batch_us_per_pair.b1", judge_us[0], "us"),
        ("core.judge_batch_us_per_pair.b2", judge_us[1], "us"),
        ("core.judge_batch_us_per_pair.b32", judge_us[2], "us"),
        (
            "core.candidates_us",
            stat("core.candidates").mean_us(),
            "us",
        ),
        ("core.candidates_build_ms", candidates_build_ms, "ms"),
        ("core.train_s", median(&setup.train_s), "s"),
        ("ann.query_us", stat("ann.query").mean_us(), "us"),
        ("ann.speedup_vs_exhaustive", speedup, "x"),
        ("ann.build_ms", ann_build_ms, "ms"),
        (
            "ann.insert_us",
            ratio(sync.self_ns as f64 / 1e3, ingest.inserted as f64),
            "us",
        ),
        ("ingest.offer_us", stat("ingest.offer").mean_us(), "us"),
        ("ingest.sync_ms", mean_ms("ingest.sync"), "ms"),
        (
            "ingest.profiles_per_event",
            ratio(ingest.profiles as f64, ingest.events as f64),
            "count",
        ),
        ("twitter_sim.generate_s", median(&setup.generate_s), "s"),
        (
            "twitter_sim.next_event_us",
            stat("twitter_sim.next_event").mean_us(),
            "us",
        ),
        ("tensor.pool_hit_ratio", pool_hit_ratio, "ratio"),
        ("bench.lateness_p99_ms", lateness_p99, "ms"),
        ("bench.trace_overhead_pct", overhead_pct, "%"),
    ])
}

fn pool_counters() -> (u64, u64) {
    (
        obs::counter_value("tensor/pool_hits"),
        obs::counter_value("tensor/pool_misses"),
    )
}

/// A benchmark-owned batcher at the server's default size and deadline,
/// fed `judge_hot`'s schedule with the reference snapshot: mean
/// submit→reply time minus the forward pass, ms. Every reply is checked
/// against the single-pair judgement.
fn queue_wait_replay(ctx: &Ctx, tracer: &Tracer, b1_us: f64) -> Result<f64, String> {
    let defaults = ServeConfig::default();
    let batcher = Batcher::new(
        defaults.batch_size,
        defaults.batch_deadline,
        defaults.queue_depth,
        None,
    );
    let model = ctx.reference.registry.current();
    let feats = ctx.reference.features();
    let pool: HashMap<usize, Arc<Vec<f32>>> = ctx
        .streams
        .hot_pool()
        .iter()
        .map(|&i| (i, Arc::new(feats[i].clone())))
        .collect();
    let next = AtomicU64::new(0);
    let waits = Mutex::new(Vec::new());
    let problem = Mutex::new(None);
    let interval = 1.0 / FIXED_RATE;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..ctx.conns {
            scope.spawn(|| loop {
                let n = next.fetch_add(1, Ordering::Relaxed);
                let due_s = n as f64 * interval;
                if due_s >= QUEUE_REPLAY_SECS {
                    break;
                }
                let due = start + Duration::from_secs_f64(due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (i, j) = ctx.streams.hot_pair(n);
                let (tx, rx) = sync_channel(1);
                let open = tracer.open("serve.batcher.submit_to_reply", tracer.new_trace(), None);
                let submitted = Instant::now();
                let job = JudgeJob {
                    model: Arc::clone(&model),
                    fa: Arc::clone(&pool[&i]),
                    fb: Arc::clone(&pool[&j]),
                    deadline: None,
                    responder: tx,
                };
                let answer = batcher
                    .submit(job)
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|()| rx.recv().map_err(|e| e.to_string()));
                let waited = submitted.elapsed().as_secs_f64() * 1e3;
                tracer.close(open);
                let want = model.service.judge_features(&feats[i], &feats[j]);
                match answer {
                    Ok(Ok(p)) if p.to_bits() == want.to_bits() => {
                        waits.lock().expect("waits poisoned").push(waited)
                    }
                    other => {
                        problem
                            .lock()
                            .expect("problem poisoned")
                            .get_or_insert(format!("batcher replay ({i},{j}): {other:?}"));
                    }
                }
            });
        }
    });
    batcher.shutdown();
    if let Some(p) = problem.into_inner().expect("problem poisoned") {
        return Err(p);
    }
    let mean_batch = batcher.stats().mean_batch_size();
    let waits = waits.into_inner().expect("waits poisoned");
    Ok(stats::mean(&waits) - b1_us * mean_batch / 1e3)
}

/// What the ingest replay did.
struct IngestReplay {
    events: u64,
    profiles: usize,
    inserted: u64,
}

/// Streams the first [`INGEST_REPLAY_EVENTS`] events of the seed's
/// stream through the pipeline with a span per call; embeddings are
/// child spans of the sync that asked for them, so the sync's self time
/// is the mirror's own work (ANN insert, eviction, bookkeeping).
fn ingest_replay(
    start_day: u64,
    reference: &Reference,
    tracer: &Tracer,
) -> Result<IngestReplay, String> {
    let mut pipeline = workloads::IngestLoop::new(start_day);
    let mut inserted = 0u64;
    for n in 1..=INGEST_REPLAY_EVENTS {
        let trace = tracer.new_trace();
        let open = tracer.open("twitter_sim.next_event", trace, None);
        let ev = pipeline.next_event();
        tracer.close(open);
        let open = tracer.open("ingest.offer", trace, None);
        pipeline.offer(ev);
        tracer.close(open);
        if n % SYNC_EVERY == 0 {
            let sync = tracer.open("ingest.sync", trace, None);
            inserted += pipeline.sync(|p| {
                let open = tracer.open("core.embed", trace, Some(sync.id()));
                let e = embed(reference, p);
                tracer.close(open);
                e
            }) as u64;
            tracer.close(sync);
        }
    }
    pipeline.finish(INGEST_REPLAY_EVENTS)?;
    Ok(IngestReplay {
        events: INGEST_REPLAY_EVENTS,
        profiles: pipeline.n_profiles(),
        inserted,
    })
}

/// Sum of a name's spans, for the report.
pub fn describe(stats: &HashMap<&'static str, NameStats>) -> String {
    let mut names: Vec<_> = stats.iter().collect();
    names.sort_by_key(|(n, _)| *n);
    names
        .into_iter()
        .map(|(n, s)| {
            format!(
                "  {n}: {} spans, mean {:.2} us, self {:.2} us",
                s.count,
                s.mean_us(),
                s.self_ns as f64 / s.count.max(1) as f64 / 1e3
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}
