//! Smoke test: every workload, at a tiny size, passes its checks and emits
//! exactly the metrics `BENCHMARK.json` names, each with its unit — in the
//! untraced run the end-to-end metrics, in the traced run the per-layer
//! ones — and the result line has exactly the keys a harness reads.

use cyclops_perfbench::{run, Args, Scale, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, k: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing key {k}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    let c = self.s[self.i];
                    self.i += 1;
                    if c == b'}' {
                        return Json::Obj(m);
                    }
                    assert_eq!(c, b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    let c = self.s[self.i];
                    self.i += 1;
                    if c == b']' {
                        return Json::Arr(a);
                    }
                    assert_eq!(c, b',');
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing input");
    v
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit, better)` triples of one metric list.
fn defs(list: &Json) -> Vec<(String, String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_registry() {
    let b = benchmark_json();
    let reg = |r: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        r.iter()
            .map(|(n, u, d)| (n.to_string(), u.to_string(), d.to_string()))
            .collect()
    };
    assert_eq!(defs(b.get("end_to_end")), reg(END_TO_END));
    assert_eq!(defs(b.get("per_layer")), reg(PER_LAYER));
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

fn check_run(w: Workload, trace: bool) {
    let b = benchmark_json();
    let list = if trace { "per_layer" } else { "end_to_end" };
    let want = defs(b.get(list));
    let args = Args {
        workload: w,
        seed: 7,
        seconds: 0.01,
        trace,
    };
    let out = run(&args, &Scale::tiny());
    assert!(
        out.correct,
        "{} failed its checks: {:?}",
        w.name(),
        out.failures
    );
    let line = parse(&out.json());
    assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(true));
    // Sessions or traces of the population, each counted once: timed
    // reruns of the same sessions do not add to it.
    let s = Scale::tiny();
    let population = match w {
        Workload::FleetPhysics => s.fleet_sessions,
        Workload::FleetShared => s.venues * s.venue_sessions,
        Workload::TraceReplay => s.viewers * s.videos,
    };
    assert_eq!(line.get("attempted"), &Json::Num(population as f64));
    assert_eq!(line.get("failed"), &Json::Num(0.0));
    let metrics = line.get("metrics");
    let mut got = metrics.keys();
    got.sort_unstable();
    let mut names: Vec<&str> = want.iter().map(|(n, _, _)| n.as_str()).collect();
    names.sort_unstable();
    assert_eq!(got, names, "{} {list} metric names", w.name());
    for (name, unit, _) in &want {
        let m = metrics.get(name);
        assert_eq!(m.keys(), ["unit", "value"]);
        assert_eq!(m.get("unit").str(), unit, "{name} unit");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{name} value"
        );
    }
}

#[test]
fn fleet_physics_emits_every_metric() {
    check_run(Workload::FleetPhysics, false);
    check_run(Workload::FleetPhysics, true);
}

#[test]
fn fleet_shared_emits_every_metric() {
    check_run(Workload::FleetShared, false);
    check_run(Workload::FleetShared, true);
}

#[test]
fn trace_replay_emits_every_metric() {
    check_run(Workload::TraceReplay, false);
    check_run(Workload::TraceReplay, true);
}
