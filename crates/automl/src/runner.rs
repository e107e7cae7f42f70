//! The search loop: suggest → evaluate → record, under an evaluation-count
//! or wall-clock budget (the paper's §III-A "time budget"). One private
//! loop serves both front doors: [`run_search_with_initial`] evaluates
//! inline, one configuration per step; [`run_search_parallel`] evaluates a
//! batch of suggestions per step on the `em-rt` pool.

use crate::config::Configuration;
use crate::space::ConfigSpace;
use em_rt::StdRng;
use std::time::{Duration, Instant};

/// Search budget. The experiments default to evaluation counts for
/// determinism; wall-clock mode mirrors the paper's seconds-based budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Stop after this many objective evaluations.
    Evaluations(usize),
    /// Stop once this much wall-clock time has elapsed (the evaluations in
    /// flight when the deadline passes still complete and are recorded).
    WallClock(Duration),
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The evaluated configuration.
    pub config: Configuration,
    /// Objective value (higher is better; the experiments use validation F1).
    pub score: f64,
    /// 0-based evaluation index.
    pub index: usize,
}

/// The full record of a search run.
#[derive(Debug, Clone, Default)]
pub struct SearchHistory {
    trials: Vec<Trial>,
}

impl SearchHistory {
    /// All trials in evaluation order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of evaluations performed.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether no evaluations have run.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The best trial so far (ties keep the earliest).
    pub fn incumbent(&self) -> Option<&Trial> {
        self.trials.iter().max_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap()
                .then(b.index.cmp(&a.index))
        })
    }

    /// Best score so far (NEG_INFINITY when empty).
    pub fn best_score(&self) -> f64 {
        self.incumbent().map_or(f64::NEG_INFINITY, |t| t.score)
    }

    /// Best score after each evaluation (the convergence curve of the
    /// paper's Figure 10).
    pub fn best_score_trace(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.trials
            .iter()
            .map(|t| {
                best = best.max(t.score);
                best
            })
            .collect()
    }

    fn push(&mut self, config: Configuration, score: f64) {
        let index = self.trials.len();
        let improved = score > self.best_score();
        self.trials.push(Trial {
            config,
            score,
            index,
        });
        em_obs::event("search.trial", || {
            vec![
                ("trial", em_rt::Json::from(index)),
                ("score", em_rt::Json::from(score)),
            ]
        });
        if improved {
            em_obs::event("search.incumbent", || {
                vec![
                    ("trial", em_rt::Json::from(index)),
                    ("score", em_rt::Json::from(score)),
                ]
            });
        }
    }
}

/// A search strategy proposes the next configuration to evaluate.
pub trait SearchAlgorithm {
    /// Propose the next configuration given the history so far.
    fn suggest(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
    ) -> Configuration;

    /// Propose up to `k` configurations to evaluate concurrently against the
    /// same history. The default calls [`SearchAlgorithm::suggest`] `k`
    /// times; model-based searchers override this to amortize one surrogate
    /// fit across the whole batch (SMAC returns the top-`k` candidates by
    /// expected improvement instead of refitting per suggestion). An
    /// override must return exactly `[suggest(..)]` for `k = 1`: that is
    /// what makes batch mode at `batch = 1` the serial search.
    fn suggest_batch(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
        k: usize,
    ) -> Vec<Configuration> {
        (0..k.max(1))
            .map(|_| self.suggest(space, history, rng))
            .collect()
    }

    /// Human-readable name for logs and experiment output.
    fn name(&self) -> &'static str;
}

/// Run a search: repeatedly ask `algo` for a configuration, evaluate it with
/// `objective` (higher = better), and record the result, until the budget is
/// exhausted. Deterministic for a fixed seed and evaluation budget.
pub fn run_search(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &mut dyn FnMut(&Configuration) -> f64,
    budget: Budget,
    seed: u64,
) -> SearchHistory {
    run_search_with_initial(space, algo, objective, budget, seed, &[])
}

/// [`run_search`] with warm-start configurations: the `initial` configs are
/// evaluated first (in order, counting against the budget) so the search
/// algorithm's model sees them from its first suggestion — auto-sklearn's
/// meta-learning warm start, with the meta-learned portfolio supplied by
/// the caller. This is the search loop at `batch = 1`, evaluated inline on
/// the caller's thread.
pub fn run_search_with_initial(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &mut dyn FnMut(&Configuration) -> f64,
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
) -> SearchHistory {
    let mut evaluate =
        |configs: &[Configuration]| -> Vec<f64> { configs.iter().map(&mut *objective).collect() };
    search_loop(space, algo, &mut evaluate, budget, seed, initial, 1)
}

/// Batched-parallel search: each step asks `algo` for a batch of `batch`
/// configurations and evaluates them concurrently on the shared `em-rt`
/// worker pool, recording results in suggestion order. Deterministic for a
/// fixed seed and budget regardless of thread count. `batch = 1` reproduces
/// [`run_search_with_initial`] trial for trial and evaluates inline, so
/// parallelism inside the objective (e.g. forest fits) keeps the pool;
/// larger batches trade per-step feedback for concurrent evaluations
/// (`batch = 0` counts as 1).
pub fn run_search_parallel(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
    batch: usize,
) -> SearchHistory {
    let mut evaluate = |configs: &[Configuration]| {
        let mut scores = vec![f64::NEG_INFINITY; configs.len()];
        let writer = em_rt::SliceWriter::new(&mut scores);
        em_rt::parallel_for_chunked(configs.len(), 0, 1, |i| {
            // Safety: each candidate index is handed out exactly once.
            unsafe { writer.write(i, objective(&configs[i])) };
        });
        scores
    };
    search_loop(space, algo, &mut evaluate, budget, seed, initial, batch)
}

/// The one suggest → evaluate → commit loop behind both front doors.
///
/// Each round takes up to `batch` configurations — the next warm-start
/// configs while any remain, then one `suggest_batch(.., batch)` call
/// against the committed history — and commits every score in suggestion
/// order. The budget is checked before each round: under
/// [`Budget::Evaluations`] the round is truncated to the evaluations left,
/// so a run is a prefix of any longer run with the same seed; under
/// [`Budget::WallClock`] a round that has started is evaluated and recorded
/// in full, warm-start configs included.
fn search_loop(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    evaluate: &mut dyn FnMut(&[Configuration]) -> Vec<f64>,
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
    batch: usize,
) -> SearchHistory {
    let batch = batch.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = SearchHistory::default();
    let start = Instant::now();
    let mut warm = initial;
    loop {
        let room = match budget {
            Budget::Evaluations(n) => n.saturating_sub(history.len()),
            Budget::WallClock(d) if start.elapsed() < d => batch,
            Budget::WallClock(_) => 0,
        };
        if room == 0 {
            break;
        }
        let round = if warm.is_empty() {
            let mut configs = algo.suggest_batch(space, &history, &mut rng, batch);
            assert!(!configs.is_empty(), "suggest_batch returned no candidates");
            configs.truncate(room);
            debug_assert!(
                configs.iter().all(|c| space.validate(c).is_ok()),
                "search algorithm produced an invalid configuration"
            );
            configs
        } else {
            let (head, rest) = warm.split_at(warm.len().min(batch).min(room));
            warm = rest;
            assert!(
                head.iter().all(|c| space.validate(c).is_ok()),
                "warm-start configuration is invalid for this space"
            );
            head.to_vec()
        };
        let base = history.len();
        for trial in base..base + round.len() {
            em_obs::event("search.eval_start", || {
                vec![("trial", em_rt::Json::from(trial))]
            });
        }
        let scores = evaluate(&round);
        for (trial, (config, score)) in (base..).zip(round.into_iter().zip(scores)) {
            em_obs::event("search.eval_finish", || {
                vec![
                    ("trial", em_rt::Json::from(trial)),
                    ("score", em_rt::Json::from(score)),
                ]
            });
            history.push(config, score);
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::RandomSearch;
    use crate::space::Domain;

    fn quadratic_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(
            "x",
            Domain::Float {
                lo: -2.0,
                hi: 2.0,
                log: false,
            },
        );
        s
    }

    /// Maximize -(x-1)^2: optimum at x = 1.
    fn objective(c: &Configuration) -> f64 {
        let x = c.get_float("x").unwrap();
        -(x - 1.0) * (x - 1.0)
    }

    #[test]
    fn evaluation_budget_is_exact() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(
            &space,
            &mut algo,
            &mut objective,
            Budget::Evaluations(37),
            0,
        );
        assert_eq!(h.len(), 37);
    }

    #[test]
    fn incumbent_is_the_max() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(
            &space,
            &mut algo,
            &mut objective,
            Budget::Evaluations(50),
            1,
        );
        let best = h.incumbent().unwrap();
        for t in h.trials() {
            assert!(t.score <= best.score);
        }
        assert_eq!(h.best_score(), best.score);
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(
            &space,
            &mut algo,
            &mut objective,
            Budget::Evaluations(40),
            2,
        );
        let trace = h.best_score_trace();
        for w in trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(trace.len(), 40);
    }

    #[test]
    fn deterministic_runs() {
        let space = quadratic_space();
        let h1 = run_search(
            &space,
            &mut RandomSearch,
            &mut objective,
            Budget::Evaluations(20),
            7,
        );
        let h2 = run_search(
            &space,
            &mut RandomSearch,
            &mut objective,
            Budget::Evaluations(20),
            7,
        );
        assert_eq!(h1.best_score(), h2.best_score());
        for (a, b) in h1.trials().iter().zip(h2.trials()) {
            assert_eq!(a.config, b.config);
        }
    }

    #[test]
    fn wall_clock_budget_stops() {
        let space = quadratic_space();
        let h = run_search(
            &space,
            &mut RandomSearch,
            &mut objective,
            Budget::WallClock(Duration::from_millis(20)),
            3,
        );
        assert!(!h.is_empty());
    }

    #[test]
    fn warm_start_configs_are_evaluated_first() {
        let space = quadratic_space();
        use crate::config::ParamValue;
        let good = Configuration::from_map([("x".to_string(), ParamValue::Float(1.0))]);
        let h = run_search_with_initial(
            &space,
            &mut RandomSearch,
            &mut objective,
            Budget::Evaluations(10),
            0,
            std::slice::from_ref(&good),
        );
        assert_eq!(h.trials()[0].config, good);
        assert_eq!(h.trials()[0].score, 0.0);
        assert_eq!(h.len(), 10);
        // The warm start is the optimum here, so it stays the incumbent.
        assert_eq!(h.incumbent().unwrap().index, 0);
    }

    #[test]
    fn warm_start_respects_tiny_budgets() {
        let space = quadratic_space();
        use crate::config::ParamValue;
        let configs: Vec<Configuration> = (0..5)
            .map(|i| {
                Configuration::from_map([("x".to_string(), ParamValue::Float(i as f64 / 10.0))])
            })
            .collect();
        let h = run_search_with_initial(
            &space,
            &mut RandomSearch,
            &mut objective,
            Budget::Evaluations(3),
            0,
            &configs,
        );
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn empty_history_best_is_neg_infinity() {
        let h = SearchHistory::default();
        assert_eq!(h.best_score(), f64::NEG_INFINITY);
        assert!(h.incumbent().is_none());
    }
}
