//! Regression tests for the batch search runner: `batch = 1` walks the
//! serial trajectory, the trajectory does not depend on the pool size, an
//! evaluation budget only truncates a run, and a wall-clock budget never
//! drops a warm-start configuration.

use em_automl::{
    run_search_parallel, run_search_with_initial, Budget, ConfigSpace, Configuration, Domain,
    RandomSearch, SearchAlgorithm, SearchHistory, SmacSearch, TpeSearch,
};
use em_rt::StdRng;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The thread-count test mutates the process-global `em_rt::set_threads`
/// knob, so the tests in this file must not interleave with each other.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A conditional toy space exercising categorical, int, and float domains.
fn build_space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    s.add(
        "model",
        Domain::Categorical(vec!["rf".into(), "gbm".into()]),
    );
    s.add_conditional(
        "rf:trees",
        Domain::Int {
            lo: 10,
            hi: 500,
            log: true,
        },
        "model",
        ["rf"],
    );
    s.add_conditional(
        "gbm:lr",
        Domain::Float {
            lo: 0.01,
            hi: 1.0,
            log: true,
        },
        "model",
        ["gbm"],
    );
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

/// A deterministic function of the configuration alone, so runs are
/// comparable evaluation by evaluation.
fn toy_objective(c: &Configuration) -> f64 {
    let x = c.get_float("x").unwrap();
    let bonus = match c.get_str("model") {
        Some("rf") => c.get_int("rf:trees").unwrap() as f64 / 500.0,
        _ => c.get_float("gbm:lr").unwrap_or(0.0),
    };
    -(x - 0.5) * (x - 0.5) + 0.1 * bonus
}

/// Every searcher, freshly constructed.
fn searchers() -> Vec<Box<dyn SearchAlgorithm>> {
    vec![
        Box::new(SmacSearch::default()),
        Box::new(TpeSearch::default()),
        Box::new(RandomSearch),
    ]
}

/// `n` distinct valid configurations to warm-start with.
fn warm_start(space: &ConfigSpace, n: usize) -> Vec<Configuration> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..n).map(|_| space.sample(&mut rng)).collect()
}

fn assert_same_history(a: &SearchHistory, b: &SearchHistory, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (ta, tb) in a.trials().iter().zip(b.trials()) {
        assert_eq!(ta.config, tb.config, "{what}: trial {}", ta.index);
        assert_eq!(
            ta.score.to_bits(),
            tb.score.to_bits(),
            "{what}: trial {}",
            ta.index
        );
        assert_eq!(ta.index, tb.index, "{what}");
    }
}

#[test]
fn batch_of_one_reproduces_the_serial_search() {
    let _guard = serialize();
    let space = build_space();
    for warm in [Vec::new(), warm_start(&space, 2)] {
        for seed in [0u64, 3, 7] {
            for (mut serial_algo, mut batch_algo) in searchers().into_iter().zip(searchers()) {
                let what = format!("{} seed {seed} warm {}", serial_algo.name(), warm.len());
                let serial = run_search_with_initial(
                    &space,
                    serial_algo.as_mut(),
                    &mut toy_objective,
                    Budget::Evaluations(24),
                    seed,
                    &warm,
                );
                let batched = run_search_parallel(
                    &space,
                    batch_algo.as_mut(),
                    &toy_objective,
                    Budget::Evaluations(24),
                    seed,
                    &warm,
                    1,
                );
                assert_same_history(&serial, &batched, &what);
            }
        }
    }
}

#[test]
fn batch_trajectory_is_thread_count_invariant() {
    let _guard = serialize();
    let space = build_space();
    let warm = warm_start(&space, 3);
    let saved = em_rt::threads();
    for batch in [2usize, 4, 8] {
        for seed in [0u64, 11] {
            let run = |algo: &mut dyn SearchAlgorithm, threads: usize| {
                em_rt::set_threads(threads);
                run_search_parallel(
                    &space,
                    algo,
                    &toy_objective,
                    Budget::Evaluations(24),
                    seed,
                    &warm,
                    batch,
                )
            };
            let smac = (
                run(&mut SmacSearch::default(), 1),
                run(&mut SmacSearch::default(), 4),
            );
            let tpe = (
                run(&mut TpeSearch::default(), 1),
                run(&mut TpeSearch::default(), 4),
            );
            em_rt::set_threads(saved);
            assert_same_history(&smac.0, &smac.1, &format!("smac batch {batch} seed {seed}"));
            assert_same_history(&tpe.0, &tpe.1, &format!("tpe batch {batch} seed {seed}"));
        }
    }
}

#[test]
fn evaluation_budget_only_truncates_the_run() {
    let _guard = serialize();
    let space = build_space();
    let warm = warm_start(&space, 3);
    for batch in [1usize, 3, 4] {
        let run = |n: usize| {
            run_search_parallel(
                &space,
                &mut SmacSearch::default(),
                &toy_objective,
                Budget::Evaluations(n),
                5,
                &warm,
                batch,
            )
        };
        let full = run(23);
        assert_eq!(full.len(), 23);
        for n in [1usize, 2, 10, 13] {
            let short = run(n);
            assert_eq!(short.len(), n);
            for (a, b) in short.trials().iter().zip(full.trials()) {
                assert_eq!(a.config, b.config, "batch {batch}, budget {n}");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }
}

#[test]
fn wall_clock_budget_evaluates_every_warm_start_config() {
    let _guard = serialize();
    let space = build_space();
    let warm = warm_start(&space, 5);
    // A millisecond per evaluation bounds the run to a few hundred trials.
    let slow = |c: &Configuration| {
        std::thread::sleep(Duration::from_millis(1));
        toy_objective(c)
    };
    let budget = Budget::WallClock(Duration::from_millis(500));
    let batched = run_search_parallel(&space, &mut RandomSearch, &slow, budget, 0, &warm, 2);
    let serial =
        run_search_with_initial(&space, &mut RandomSearch, &mut { slow }, budget, 0, &warm);
    for history in [batched, serial] {
        assert!(history.len() >= warm.len(), "only {} trials", history.len());
        for (trial, config) in history.trials().iter().zip(&warm) {
            assert_eq!(&trial.config, config, "trial {}", trial.index);
        }
    }
}
