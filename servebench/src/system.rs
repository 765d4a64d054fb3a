//! The system under test — one generated world, one trained model, one
//! in-process server — and the reference that every answer is checked
//! against.

use crate::client::Client;
use crate::streams::TOP_K;
use crate::trace::Tracer;
use hisrect::{ApproachSpec, HisRectModel, Judgement};
use serve::{LoadedModel, ModelRegistry, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use twitter_sim::{Dataset, SimConfig};

/// Seed of the served world and of its model's training. The world is
/// fixed: with a world per run seed, recall@10 ranged 0.94-0.999 and the
/// candidates rate 2.2k-4.8k queries/s across five seeds, differences
/// between worlds that no bound could hold. The run seed varies the
/// traffic instead.
pub const WORLD_SEED: u64 = 7;
/// Featurizer and judge iterations of the set-up training run: short,
/// so set-up stays a few seconds, and fixed, so every run serves the
/// same kind of model.
pub const TRAIN_ITERS: usize = 20;
/// Set-ups per run; `setup_s` is their median and the last one serves.
pub const SETUP_REPEATS: usize = 3;

/// The served model's training recipe.
pub fn train_spec() -> ApproachSpec {
    ApproachSpec::hisrect().with_config(|c| {
        c.featurizer_iters = TRAIN_ITERS;
        c.judge_iters = TRAIN_ITERS;
    })
}

/// A running system.
pub struct Served {
    /// The served world.
    pub dataset: Arc<Dataset>,
    /// The model file the server loaded (and `/reload` re-reads).
    pub model_path: PathBuf,
    /// The server.
    pub server: ServerHandle,
}

impl Served {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Wall times of every set-up, seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Whole set-ups.
    pub total_s: Vec<f64>,
    /// `twitter_sim::generate`.
    pub generate_s: Vec<f64>,
    /// `HisRectModel::try_train`.
    pub train_s: Vec<f64>,
}

/// Generates the world, trains, loads the registry (features and ANN
/// index) and starts the server, until `/healthz` answers — `repeats`
/// times. Earlier systems are shut down before the next set-up starts;
/// the last one is returned.
pub fn set_up(dir: &Path, repeats: usize, tracer: &Tracer) -> Result<(Served, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut times = SetupTimes::default();
    let mut served = None;
    for _ in 0..repeats {
        // Shut the previous system down first, so set-ups do not overlap.
        drop(served.take());
        let trace = tracer.new_trace();
        let root = tracer.open("setup", trace, None);
        let start = Instant::now();

        let open = tracer.open("twitter_sim.generate", trace, Some(root.id()));
        let dataset = Arc::new(twitter_sim::generate(&SimConfig::lv_like(WORLD_SEED)));
        tracer.close(open);
        times.generate_s.push(start.elapsed().as_secs_f64());

        let t = Instant::now();
        let open = tracer.open("core.train", trace, Some(root.id()));
        let model = HisRectModel::try_train(&dataset, &train_spec(), WORLD_SEED, None)
            .map_err(|e| format!("training: {e}"))?;
        tracer.close(open);
        times.train_s.push(t.elapsed().as_secs_f64());

        let model_path = dir.join("model.json");
        model
            .save_json(&model_path)
            .map_err(|e| format!("save {}: {e}", model_path.display()))?;

        let open = tracer.open("serve.registry.load", trace, Some(root.id()));
        let registry = ModelRegistry::load(&model_path, Arc::clone(&dataset))
            .map_err(|e| format!("registry load: {e}"))?;
        tracer.close(open);

        let open = tracer.open("serve.start", trace, Some(root.id()));
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        let server = serve::serve(config, registry).map_err(|e| format!("serve: {e}"))?;
        wait_healthy(server.addr())?;
        tracer.close(open);

        times.total_s.push(start.elapsed().as_secs_f64());
        tracer.close(root);
        served = Some(Served {
            dataset,
            model_path,
            server,
        });
    }
    let served = served.ok_or("no set-up ran")?;
    Ok((served, times))
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::new(addr);
    loop {
        match client.get("/healthz") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() > deadline => return Err("/healthz never answered 200".into()),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The reference: a benchmark-owned registry loaded from the served
/// model file, whose judge and candidate services compute every expected
/// answer.
pub struct Reference {
    /// The benchmark's own registry (also reloaded by the traced run).
    pub registry: ModelRegistry,
    /// The snapshot the expected answers come from.
    pub model: Arc<LoadedModel>,
    features: OnceLock<Vec<Vec<f32>>>,
}

impl Reference {
    /// Loads the reference from the served model file.
    pub fn load(served: &Served) -> Result<Self, String> {
        let registry = ModelRegistry::load(&served.model_path, Arc::clone(&served.dataset))
            .map_err(|e| format!("reference registry: {e}"))?;
        let model = registry.current();
        Ok(Self {
            registry,
            model,
            features: OnceLock::new(),
        })
    }

    /// `F(r)` of every corpus profile (computed on first use).
    pub fn features(&self) -> &[Vec<f32>] {
        self.features.get_or_init(|| {
            let corpus = self.registry.corpus();
            let refs: Vec<&twitter_sim::Profile> = corpus.profiles.iter().collect();
            self.model.service.features_many(&refs, Default::default())
        })
    }

    fn judgement(&self, feats: &[Vec<f32>], i: usize, j: usize) -> Judgement {
        let p = self.model.service.judge_features(&feats[i], &feats[j]);
        Judgement::from_probability(i, j, p)
    }

    /// The expected `/judge` body.
    pub fn judge_body(&self, i: usize, j: usize) -> String {
        serde_json::to_string(&self.judgement(self.features(), i, j)).expect("serializable")
    }

    /// The expected `/candidates` body.
    pub fn candidates_body(&self, i: usize) -> String {
        let set = self
            .model
            .candidates
            .candidates(&self.model.service, i, TOP_K)
            .expect("query profiles are indexed");
        serde_json::to_string(&set).expect("serializable")
    }
}
