//! End-to-end serving tests: the batch service over calibrated targets,
//! and calibration hot-swap observed through the public `mirage` API.

use mirage::circuit::consolidate::consolidate;
use mirage::circuit::generators::{ghz, portfolio_qaoa, qft, two_local_full};
use mirage::core::calibration::EdgeCalibration;
use mirage::core::trials::Metric;
use mirage::core::verify::verify_routed;
use mirage::core::{transpile, Calibration, RouterKind, Target, TranspileOptions};
use mirage::math::Rng;
use mirage::serve::net::CalibrationRefresher;
use mirage::serve::{InjectedFault, JobError, TranspileJob, TranspileService};
use mirage::topology::CouplingMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick_opts(seed: u64) -> TranspileOptions {
    let mut opts = TranspileOptions::quick(RouterKind::Mirage, seed);
    opts.trials.layout_trials = 2;
    opts.trials.routing_trials = 2;
    opts
}

#[test]
fn service_round_trips_a_mixed_batch_on_a_calibrated_device() {
    let topo = CouplingMap::grid(3, 3);
    let cal = Calibration::synthetic(&topo, &mut Rng::new(0x5EED5));
    let target = Arc::new(Target::sqrt_iswap(topo).with_calibration(cal).unwrap());
    let service = TranspileService::new(Arc::clone(&target), 3);
    let circuits = vec![
        ("qft-5", qft(5, false)),
        ("ghz-7", ghz(7)),
        ("twolocal-5", two_local_full(5, 1, 7)),
        ("qaoa-6", portfolio_qaoa(6, 1, 7)),
    ];
    let jobs: Vec<TranspileJob> = circuits
        .iter()
        .enumerate()
        .map(|(i, (name, c))| {
            TranspileJob::new(*name, c.clone(), quick_opts(3)).with_seed(100 + i as u64)
        })
        .collect();
    let results = service.run_batch(jobs).unwrap();
    assert_eq!(results.len(), circuits.len());
    for (result, (name, circuit)) in results.iter().zip(&circuits) {
        let out = result.outcome.as_ref().expect("job succeeds");
        assert!(
            verify_routed(&consolidate(circuit), &out.as_routed(), &target),
            "{name} failed verification"
        );
        assert!(out.metrics.estimated_success > 0.0 && out.metrics.estimated_success <= 1.0);
    }
    let stats = service.shutdown();
    assert_eq!(stats.jobs, circuits.len() as u64);
}

#[test]
fn hot_swap_changes_routing_metrics_without_rebuilding_the_target() {
    // The acceptance scenario: a warm, shared Target absorbs a calibration
    // swap; the next job's metrics reflect the new device, bit-identically
    // to a target built with that calibration from scratch.
    let topo = CouplingMap::line(5);
    let target = Arc::new(Target::sqrt_iswap(topo.clone()));
    let circuit = two_local_full(5, 1, 9);
    let opts = quick_opts(7).with_metric(Metric::EstimatedSuccess);

    // Warm everything: coverage set and coordinate-class costs.
    let before = transpile(&circuit, &target, &opts).unwrap();
    assert_eq!(before.metrics.estimated_success, 1.0, "uniform device");
    assert!(target.coverage_built());
    let (_, misses_warm) = target.cache_stats();

    let cal = Calibration::synthetic(&topo, &mut Rng::new(0xACDC));
    target.swap_calibration(Arc::new(cal.clone())).unwrap();
    assert_eq!(target.calibration_generation(), 1);

    let after = transpile(&circuit, &target, &opts).unwrap();
    assert!(
        after.metrics.estimated_success > 0.0 && after.metrics.estimated_success < 1.0,
        "post-swap routing must be scored under the noisy calibration"
    );

    // Identical to a cold target carrying the same calibration...
    let fresh = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
    let expected = transpile(&circuit, &fresh, &opts).unwrap();
    assert_eq!(after.circuit, expected.circuit);
    assert_eq!(
        after.metrics.estimated_success,
        expected.metrics.estimated_success
    );

    // ...but the swapped target never rebuilt its coverage set: its
    // coordinate-class entries stayed warm across the swap, while the
    // fresh target had to miss every class.
    let (_, misses_after) = target.cache_stats();
    let (_, misses_fresh) = fresh.cache_stats();
    assert!(
        misses_after - misses_warm < misses_fresh,
        "swap re-priced {} entries, a rebuild would pay {}",
        misses_after - misses_warm,
        misses_fresh
    );
}

#[test]
fn warm_target_prices_under_the_new_calibration_immediately_after_swap() {
    let topo = CouplingMap::line(3);
    let target = Target::sqrt_iswap(topo.clone());
    let mut swap = mirage::circuit::Circuit::new(3);
    swap.swap(0, 1);
    let circuit = two_local_full(3, 1, 5);
    let opts = quick_opts(3);
    // Warm the coordinate cache under the nominal calibration.
    assert!((target.depth_estimate(&swap) - 1.5).abs() < 1e-12);
    let warm = transpile(&circuit, &target, &opts).unwrap();

    let mut cal = Calibration::uniform(&topo);
    cal.set_edge(
        0,
        1,
        EdgeCalibration {
            duration_factor: 3.0,
            error_2q: 0.0,
        },
    )
    .unwrap();
    target.swap_calibration(Arc::new(cal.clone())).unwrap();
    assert!(
        (target.depth_estimate(&swap) - 4.5).abs() < 1e-12,
        "depth priced under the replaced calibration"
    );
    let swapped = transpile(&circuit, &target, &opts).unwrap();
    assert_eq!((warm.generation, swapped.generation), (0, 1));
    // A transpile on the warm target prices exactly like one on a target
    // built with the new calibration.
    let fresh = Target::sqrt_iswap(topo).with_calibration(cal).unwrap();
    let expected = transpile(&circuit, &fresh, &opts).unwrap();
    assert_eq!(swapped.circuit, expected.circuit);
    assert_eq!(
        swapped.metrics.depth_estimate.to_bits(),
        expected.metrics.depth_estimate.to_bits()
    );
    assert_eq!(
        swapped.metrics.depth_estimate.to_bits(),
        target.depth_estimate(&swapped.circuit).to_bits()
    );
}

#[test]
fn reported_generation_reproduces_jobs_that_race_a_swap() {
    // A swapper thread publishes calibrations back to back while jobs run,
    // so swaps land between a worker's dequeue and its transpile's pricing.
    // Whatever generation a job reports, rerunning it in-process on a
    // fresh target carrying that generation's calibration must reproduce
    // its circuit: the result was priced under exactly that snapshot.
    let topo = CouplingMap::grid(2, 3);
    let calibrations: Vec<Calibration> = (0..3u64)
        .map(|i| Calibration::skewed(&topo, &mut Rng::new(0x5A5A + i), 5e-3, 0.25, 8.0).unwrap())
        .collect();
    // Generation g runs under calibrations[g % 3].
    let target = Arc::new(
        Target::sqrt_iswap(topo.clone())
            .with_calibration(calibrations[0].clone())
            .unwrap(),
    );
    // One worker leaves a core to the swapper on small hosts.
    let service = TranspileService::new(Arc::clone(&target), 1);
    let opts = quick_opts(0).with_metric(Metric::EstimatedSuccess);
    let job = |i: u64| {
        TranspileJob::new(format!("job-{i}"), qft(6, false), opts.clone()).with_seed(700 + i)
    };
    let done = std::sync::atomic::AtomicBool::new(false);
    let started = std::sync::atomic::AtomicBool::new(false);
    let results = std::thread::scope(|s| {
        s.spawn(|| {
            let mut generation = 0u64;
            started.store(true, std::sync::atomic::Ordering::Relaxed);
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let next = &calibrations[((generation + 1) % 3) as usize];
                generation = target.swap_calibration(Arc::new(next.clone())).unwrap();
                std::thread::yield_now();
            }
        });
        while !started.load(std::sync::atomic::Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let results = service.run_batch((0..16).map(job).collect()).unwrap();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        results
    });
    let generations: std::collections::BTreeSet<u64> =
        results.iter().map(|r| r.generation).collect();
    assert!(generations.len() > 1, "jobs should straddle several swaps");
    for (i, result) in results.iter().enumerate() {
        let out = result.outcome.as_ref().expect("job succeeds");
        assert_eq!(result.generation, out.generation);
        let cal = calibrations[(result.generation % 3) as usize].clone();
        let fresh = Target::sqrt_iswap(topo.clone())
            .with_calibration(cal)
            .unwrap();
        let mut rerun_opts = opts.clone();
        rerun_opts.trials.seed = 700 + i as u64;
        let rerun = transpile(&qft(6, false), &fresh, &rerun_opts).unwrap();
        assert_eq!(
            out.circuit.fingerprint(),
            rerun.circuit.fingerprint(),
            "job {i} reported generation {} but was not computed under it",
            result.generation
        );
        assert_eq!(
            out.metrics.estimated_success.to_bits(),
            rerun.metrics.estimated_success.to_bits()
        );
    }
    service.shutdown();
}

/// Block until `condition` holds or a generous deadline passes (the
/// refresher polls every few milliseconds; CI machines get 10 s of slack).
fn wait_for(what: &str, condition: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn calibration_refresher_hot_swaps_from_a_watched_file() {
    let topo = CouplingMap::line(5);
    let cal_a = Calibration::synthetic(&topo, &mut Rng::new(0xA11CE));
    let target = Arc::new(
        Target::sqrt_iswap(topo.clone())
            .with_calibration(cal_a.clone())
            .unwrap(),
    );
    let service = TranspileService::new(Arc::clone(&target), 2);

    let path = std::env::temp_dir().join(format!("mirage-refresh-{}.cal", std::process::id()));
    std::fs::write(&path, cal_a.to_text()).unwrap();
    let mut refresher =
        CalibrationRefresher::spawn(Arc::clone(&target), path.clone(), Duration::from_millis(5));

    let opts = quick_opts(7).with_metric(Metric::EstimatedSuccess);
    let job = |label: &str, seed: u64| {
        TranspileJob::new(label, two_local_full(5, 1, 9), opts.clone()).with_seed(seed)
    };

    // The boot file is the baseline: watching it must NOT count as a
    // change, so the first job still runs under generation 0.
    wait_for("first poll", || refresher.polls() >= 1);
    let before = service.run_batch(vec![job("before", 41)]).unwrap();
    assert_eq!(before[0].generation, 0);
    assert_eq!(refresher.swaps(), 0);

    // Rewrite the watched file mid-serving-session: the refresher must
    // pick it up and later jobs must run under the bumped generation.
    let cal_b = Calibration::synthetic(&topo, &mut Rng::new(0xB0B));
    std::fs::write(&path, cal_b.to_text()).unwrap();
    wait_for("hot swap of revision B", || refresher.swaps() >= 1);
    assert_eq!(target.calibration_generation(), 1);
    let after = service.run_batch(vec![job("after", 42)]).unwrap();
    assert_eq!(after[0].generation, 1);

    // Bit-identical to a fresh target built with revision B directly.
    let fresh = Arc::new(
        Target::sqrt_iswap(topo.clone())
            .with_calibration(cal_b)
            .unwrap(),
    );
    let expected = TranspileService::new(fresh, 1)
        .run_batch(vec![job("fresh", 42)])
        .unwrap();
    assert_eq!(
        after[0].outcome.as_ref().unwrap().circuit,
        expected[0].outcome.as_ref().unwrap().circuit,
        "a file-driven hot swap must be indistinguishable from a rebuild"
    );

    // A corrupt rewrite is counted and skipped, never fatal: the last
    // good calibration keeps serving, and the failure lands in the
    // corrupt (not I/O) counter.
    std::fs::write(&path, "not a calibration file").unwrap();
    wait_for("corrupt revision to be counted", || refresher.errors() >= 1);
    assert!(refresher.corrupt_skipped() >= 1, "parse failure class");
    assert_eq!(target.calibration_generation(), 1, "bad file must not swap");
    assert!(
        refresher.status_line().contains("corrupt skipped"),
        "status line reports the split counters: {}",
        refresher.status_line()
    );
    assert!(service.run_batch(vec![job("still-up", 43)]).unwrap()[0]
        .outcome
        .is_ok());

    // And the next good revision recovers automatically.
    let cal_c = Calibration::synthetic(&topo, &mut Rng::new(0xCAFE));
    std::fs::write(&path, cal_c.to_text()).unwrap();
    wait_for("hot swap of revision C", || refresher.swaps() >= 2);
    assert_eq!(target.calibration_generation(), 2);

    refresher.stop();
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_panics_fail_alone_and_survivors_stay_bit_identical() {
    // The supervision acceptance gate: rerun the same batch with two jobs
    // carrying injected panics (one caught in-place, one killing its
    // worker). The faulted jobs — and ONLY those — must fail with the
    // typed WorkerPanicked error, the pool must respawn the killed
    // worker, and every surviving job's circuit must be bit-identical to
    // the fault-free run.
    let make_service = || {
        let topo = CouplingMap::grid(3, 3);
        let cal = Calibration::synthetic(&topo, &mut Rng::new(0x5EED5));
        let target = Arc::new(Target::sqrt_iswap(topo).with_calibration(cal).unwrap());
        TranspileService::new(target, 2)
    };
    let jobs = |faults: &[Option<InjectedFault>]| -> Vec<TranspileJob> {
        (0..6)
            .map(|i| {
                let mut job = TranspileJob::new(
                    format!("job-{i}"),
                    two_local_full(5, 1, 11 + i as u64),
                    quick_opts(2),
                )
                .with_seed(900 + i as u64);
                if let Some(fault) = faults[i] {
                    job = job.with_fault(fault);
                }
                job
            })
            .collect()
    };

    let clean_service = make_service();
    let clean = clean_service.run_batch(jobs(&[None; 6])).unwrap();
    let clean_stats = clean_service.shutdown();
    assert_eq!(clean_stats.respawns, 0);

    let mut faults = [None; 6];
    faults[1] = Some(InjectedFault::Panic);
    faults[4] = Some(InjectedFault::PanicKill);
    let service = make_service();
    let faulted = service.run_batch(jobs(&faults)).unwrap();
    for (i, (clean_result, result)) in clean.iter().zip(&faulted).enumerate() {
        if faults[i].is_some() {
            match &result.outcome {
                Err(JobError::WorkerPanicked { message }) => {
                    assert!(
                        message.contains("injected fault") || message.contains("died"),
                        "job {i}: panic surfaced with its payload, got {message:?}"
                    );
                }
                other => panic!("job {i}: expected WorkerPanicked, got {other:?}"),
            }
        } else {
            let clean_out = clean_result.outcome.as_ref().unwrap();
            let out = result
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("job {i} must survive its neighbors' panics, got {e}"));
            assert_eq!(
                out.circuit.fingerprint(),
                clean_out.circuit.fingerprint(),
                "job {i}: survivor diverged from the fault-free run"
            );
            assert_eq!(out.circuit, clean_out.circuit);
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.jobs, 6, "every job reached a terminal result");
    assert!(
        stats.respawns >= 1,
        "the killed worker must have been respawned"
    );
}

#[test]
fn service_batches_are_deterministic_through_the_public_api() {
    let run = |workers: usize| {
        let topo = CouplingMap::grid(2, 4);
        let cal = Calibration::skewed(&topo, &mut Rng::new(0xF00), 5e-3, 0.25, 6.0).unwrap();
        let target = Arc::new(Target::sqrt_iswap(topo).with_calibration(cal).unwrap());
        let service = TranspileService::new(target, workers);
        let jobs: Vec<TranspileJob> = (0..6)
            .map(|i| {
                TranspileJob::new(
                    format!("job-{i}"),
                    two_local_full(5, 1, 7 + i as u64),
                    quick_opts(0).with_metric(Metric::EstimatedSuccess),
                )
                .with_seed(500 + i as u64)
            })
            .collect();
        service
            .run_batch(jobs)
            .unwrap()
            .into_iter()
            .map(|r| r.outcome.unwrap().circuit)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(3), "1 vs 3 workers must be bit-identical");
}
