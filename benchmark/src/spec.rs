//! `BENCHMARK.json`, read at compile time: the one list of workload and
//! metric names, units and bounds, so what the benchmark prints cannot
//! drift from what the file promises.

use resource_discovery::obs::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the reference median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// # Panics
    ///
    /// Panics if the committed file is not the JSON the benchmark's
    /// contract describes; the unit tests load it, so that cannot ship.
    pub fn load() -> Spec {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> &[Json] {
            root.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has a list called {key}"))
        };
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry has a string called {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|m| {
                    let bound = m.get("bound").and_then(Json::as_f64);
                    if bound.is_some() {
                        // The repeat check reads "worse" as "larger".
                        assert_eq!(text(m, "better"), "lower");
                    }
                    MetricSpec {
                        name: text(m, "name"),
                        unit: text(m, "unit"),
                        bound,
                    }
                })
                .collect()
        };
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json has run_seconds"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}
