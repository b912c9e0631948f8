//! The benchmark's definition (request streams, digest, percentile rule,
//! span self times) and, in release builds, the binary's smoke runs.

use rf_obs::json::{self, Value};
use rfbench::trace::{self_times, SpanRec};
use rfbench::{Scale, Workload};
use std::collections::HashSet;
use std::process::Command;

const SMOKE: Scale = Scale { smoke: true };

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get_str("name").unwrap().to_owned(),
                m.get_str("unit").unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    for (key, catalogue) in [
        ("end_to_end", rfbench::END_TO_END),
        ("per_layer", rfbench::PER_LAYER),
    ] {
        let ours: Vec<(String, String)> = catalogue
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(listed(key), ours, "{key}");
    }
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get_str("name").unwrap().to_owned())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn request_streams_have_the_documented_shape() {
    let full = Scale { smoke: false };
    for (w, batches, requests, unique) in [
        (Workload::RegSweep, 8, 1152, 864),
        (Workload::WindowSweep, 4, 216, 216),
        (Workload::StoreReplay, 12, 1368, 1080),
    ] {
        let stream = rfbench::sweep_batches(w, 1, full);
        assert_eq!(stream.len(), batches, "{}", w.name());
        assert!(
            stream.iter().all(|b| [54, 72, 216].contains(&b.len())),
            "{}: batches shaped as the fig3, fig6 and fig7 harnesses send them",
            w.name()
        );
        let specs: Vec<_> = stream.into_iter().flatten().collect();
        let distinct: HashSet<_> = specs.iter().collect();
        assert_eq!(
            (specs.len(), distinct.len()),
            (requests, unique),
            "{}",
            w.name()
        );
        assert_eq!(rfbench::requests_per_round(w, full), requests as u64);
    }
    assert_eq!(rfbench::requests_per_round(Workload::Checked, full), 72);
}

#[test]
fn the_seed_changes_only_the_run_spec_seeds() {
    for w in [
        Workload::RegSweep,
        Workload::WindowSweep,
        Workload::StoreReplay,
    ] {
        let a = rfbench::sweep_batches(w, 1, SMOKE);
        assert_eq!(
            a,
            rfbench::sweep_batches(w, 1, SMOKE),
            "same seed, same stream"
        );
        let b = rfbench::sweep_batches(w, 7, SMOKE);
        assert_eq!(a.len(), b.len());
        for (ba, bb) in a.iter().zip(&b) {
            assert_eq!(ba.len(), bb.len());
            for (sa, sb) in ba.iter().zip(bb) {
                assert_ne!(sa.seed, sb.seed, "{}", w.name());
                assert_eq!(
                    *sa,
                    rf_experiments::RunSpec {
                        seed: sa.seed,
                        ..sb.clone()
                    }
                );
            }
        }
    }
    let show = |seed| -> Vec<(String, u64)> {
        rfbench::check_params(seed, SMOKE)
            .into_iter()
            .map(|p| {
                let s = p.seed;
                (format!("{:?}", rf_check::CheckParams { seed: 0, ..p }), s)
            })
            .collect()
    };
    let (a, b) = (show(1), show(7));
    assert_eq!(a, show(1));
    for ((pa, sa), (pb, sb)) in a.iter().zip(&b) {
        assert_eq!(pa, pb);
        assert_ne!(sa, sb);
    }
}

#[test]
fn a_tampered_stats_vector_trips_the_digest_check() {
    let specs: Vec<_> = rfbench::sweep_batches(Workload::WindowSweep, 1, SMOKE)
        .remove(0)
        .into_iter()
        .take(3)
        .collect();
    let stats: Vec<_> = specs.iter().map(rf_experiments::runner::simulate).collect();
    let digest = |stats: &[rf_core::SimStats]| {
        let mut d = rfbench::StatsDigest::default();
        for (spec, s) in specs.iter().zip(stats) {
            d.push_spec(spec, s);
        }
        d.hex()
    };
    let reference = digest(&stats);
    assert_eq!(rfbench::digest_failures(&reference, &digest(&stats), 3), 0);
    let mut tampered = stats.clone();
    tampered[1].cycles += 1;
    assert_eq!(
        rfbench::digest_failures(&reference, &digest(&tampered), 3),
        3
    );
    let mut reordered = stats;
    reordered.swap(0, 2);
    assert_ne!(
        digest(&reordered),
        reference,
        "answers are digested in request order"
    );
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(rfbench::percentile(&samples(99), 90.0), None);
    assert_eq!(rfbench::percentile(&samples(100), 90.0), Some(90.0));
    assert_eq!(rfbench::percentile(&samples(999), 99.0), None);
    assert_eq!(rfbench::percentile(&samples(1000), 99.0), Some(990.0));
    assert_eq!(rfbench::percentile(&[], 50.0), None);
    assert_eq!(rfbench::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(rfbench::median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
}

#[test]
fn self_time_excludes_the_union_of_child_intervals() {
    let span = |start_ns, end_ns, parent| SpanRec {
        name: "x",
        start_ns,
        end_ns,
        parent,
        request: None,
    };
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),
        span(60, 70, Some(0)),
        span(62, 64, Some(3)),
    ];
    assert_eq!(self_times(&spans), [50, 20, 30, 8, 2]);
}

fn run_smoke(workload: Workload, trace: &str) -> (i32, Vec<String>) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rfbench"))
        .args(["--workload", workload.name(), "--smoke", "--trace", trace])
        .current_dir(&dir)
        .output()
        .expect("rfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    (out.status.code().unwrap_or(-1), stdout)
}

/// In a release build every listed metric is printed with a finite value
/// and its unit, no request fails, and the trace's self times are sane. A
/// debug build refuses to measure.
#[test]
fn smoke_runs_print_every_listed_metric() {
    if cfg!(debug_assertions) {
        assert_eq!(
            run_smoke(Workload::Checked, "0").0,
            2,
            "debug builds exit 2"
        );
        return;
    }
    for w in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (code, lines) = run_smoke(w, trace);
            assert_eq!(code, 0, "{} trace {trace}: {lines:?}", w.name());
            let summary = json::parse(lines.last().unwrap()).unwrap();
            assert_eq!(summary.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(summary.get_f64("failed"), Some(0.0), "error rate 0");
            assert!(summary.get_f64("attempted").unwrap() >= 1.0);
            let metrics = summary.get("metrics").unwrap();
            for (name, unit) in listed(key) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{} lacks {name}", w.name()));
                assert!(m.get_f64("value").is_some_and(f64::is_finite), "{name}");
                assert_eq!(m.get_str("unit"), Some(unit.as_str()), "{name}");
                assert!(
                    lines.iter().any(|l| l.contains(&format!("] {name} "))),
                    "{name} printed"
                );
            }
            if trace == "1" {
                check_trace(w);
            }
        }
    }
}

/// Self times in the written trace are non-negative and add up to no
/// more than the traced round's wall time times the worker count.
fn check_trace(w: Workload) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-1/target/rfbench/{}-1.trace.json", w.name()));
    let trace = json::parse(&std::fs::read_to_string(&path).expect("trace written")).unwrap();
    let wall = trace.get_f64("wall_ns").unwrap();
    let jobs = trace.get_f64("jobs").unwrap();
    let spans = trace.get("spans").and_then(Value::as_array).unwrap();
    let round = spans
        .iter()
        .position(|s| s.get_str("name") == Some("round"))
        .expect("a round span");
    let mut in_round = 0.0;
    for s in spans {
        let own = s.get_f64("self_ns").unwrap();
        assert!(own >= 0.0 && own <= s.get_f64("end_ns").unwrap() - s.get_f64("start_ns").unwrap());
        let mut p = s.get_f64("parent");
        while let Some(i) = p.map(|i| i as usize).filter(|&i| i != round) {
            p = spans[i].get_f64("parent");
        }
        if p.is_some() || s.get_str("name") == Some("round") {
            in_round += own;
        }
    }
    assert!(
        in_round <= wall,
        "{}: benchmark spans {in_round} > wall {wall}",
        w.name()
    );
    let layers: f64 = trace
        .get("layers")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|l| l.get_f64("self_ns").unwrap())
        .inspect(|&ns| assert!(ns >= 0.0))
        .sum();
    assert!(
        layers <= wall * jobs,
        "{}: layer self {layers} > {wall} x {jobs}",
        w.name()
    );
}
