//! What one benchmark run measured: operation counts, failures and metric
//! values by name.

use std::collections::BTreeMap;

/// Failure messages printed per run before the rest are only counted.
const PRINTED_FAILURES: u64 = 8;

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Environment and workload description lines (`key`, JSON value).
    pub stamp: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn stamp(&mut self, key: &str, json_value: String) {
        self.stamp.push((key.to_string(), json_value));
    }

    /// Count one checked operation; `Err` counts it as failed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failed <= PRINTED_FAILURES {
                eprintln!("FAILED {what}: {msg}");
            }
        }
    }
}
