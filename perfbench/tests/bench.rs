//! The benchmark's own tests: every workload runs on a small grid and
//! prints every metric `BENCHMARK.json` names, with its unit; the committed
//! artifact passes the correctness gate and a corrupted copy fails it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use serde::{Deserialize, Value};

/// Any JSON value, through the vendored serde data model.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    fn parse(text: &str) -> Json {
        serde_json::from_str(text).unwrap_or_else(|e| panic!("not JSON ({e:?}): {text}"))
    }

    fn get(&self, key: &str) -> &Value {
        serde::map_get(self.0.as_map().expect("a JSON object"), key).expect("key present")
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A cargo target directory with release builds of the examples the
/// benchmark times, built once per test binary as `run.py` builds them.
fn build_dir() -> &'static str {
    static DIR: OnceLock<String> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("build");
        let mut build = Command::new(env!("CARGO"));
        build
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "baseline-equivalence"])
            .args([
                "--example",
                "stability_sweep",
                "--example",
                "saturation_curve",
            ])
            .args(["--example", "classify_sweep"])
            .current_dir(repo_root())
            .env("CARGO_TARGET_DIR", &dir);
        assert!(
            build.status().expect("run cargo").success(),
            "build the examples"
        );
        dir.to_str().expect("a UTF-8 path").to_string()
    })
}

/// Runs the benchmark binary from `dir` (where the committed artifacts are
/// read) with `--build-dir` added.
fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--build-dir", build_dir()])
        .current_dir(dir)
        .output()
        .expect("run the benchmark binary")
}

fn run(args: &[&str]) -> Output {
    run_in(&repo_root(), args)
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("a result line"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&text);
    bench
        .get(list)
        .as_seq()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let m = m.as_map().expect("a metric object");
            let field = |k| serde::map_get(m, k).unwrap().as_str().unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(u) => *u as f64,
        Value::I64(i) => *i as f64,
        Value::F64(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

fn check_small_run(workload: &str, trace: &str, list: &str) {
    let output = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "small",
    ]);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = result_line(&output);
    assert_eq!(result.get("correct"), &Value::Bool(true));
    assert!(number(result.get("attempted")) >= 1.0);
    assert_eq!(number(result.get("failed")), 0.0);
    let metrics = result.get("metrics").as_map().expect("a metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected = declared(list);
    assert_eq!(
        printed,
        expected.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    for ((name, value), (_, unit)) in metrics.iter().zip(&expected) {
        let value = value.as_map().expect("a metric object");
        assert_eq!(
            serde::map_get(value, "unit").unwrap().as_str(),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            number(serde::map_get(value, "value").unwrap()).is_finite(),
            "{name}"
        );
    }
    if list == "end_to_end" {
        for (name, value) in metrics {
            let value = number(serde::map_get(value.as_map().unwrap(), "value").unwrap());
            assert!(value > 0.0, "{workload}: {name} must never be 0");
        }
    } else {
        let spans = Path::new(build_dir()).join(format!("perfbench/spans-{workload}-3.jsonl"));
        assert!(std::fs::read_to_string(spans)
            .unwrap()
            .contains("\"summary\":\"workload\""));
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in ["stability", "saturation", "classify", "serve"] {
        check_small_run(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in ["stability", "saturation", "classify", "serve"] {
        check_small_run(workload, "1", "per_layer");
    }
}

#[test]
fn committed_artifact_passes_and_a_corrupted_copy_fails_the_gate() {
    let args = [
        "--workload",
        "saturation",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--seed",
        "0",
    ];
    let output = run(&args);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(result_line(&output).get("correct"), &Value::Bool(true));

    let mut bytes = std::fs::read(repo_root().join("saturation.json")).unwrap();
    let digit = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
    bytes[digit] = if bytes[digit] == b'9' {
        b'0'
    } else {
        bytes[digit] + 1
    };
    let corrupted = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted");
    std::fs::create_dir_all(&corrupted).unwrap();
    std::fs::write(corrupted.join("saturation.json"), bytes).unwrap();
    let output = run_in(&corrupted, &args);
    assert!(
        !output.status.success(),
        "a corrupted expected output must fail the gate"
    );
    let result = result_line(&output);
    assert_eq!(result.get("correct"), &Value::Bool(false));
    assert_eq!(
        number(result.get("failed")),
        number(result.get("attempted"))
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "serve", "--trace", "2"],
    ] {
        let output = run(args);
        assert!(!output.status.success());
        assert!(output.stdout.is_empty());
    }
}
