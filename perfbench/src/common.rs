//! Inputs, timing helpers and the run report shared by every workload.

use em_core::pipeline::{CaseStudy, CaseStudyConfig, ServingArtifacts};
use em_core::{project_umetrics, project_usda, MatchIds};
use em_datagen::{Scenario, ScenarioConfig};
use em_table::Table;
use std::collections::BTreeMap;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// The case-study scenario every workload matches: one fixed data set, so
/// the quality floors and the per-candidate costs of the three workloads
/// compare directly. `--seed` drives only what the benchmark itself
/// generates on top of it (arrivals, push order, audit samples).
pub const SCENARIO_SEED: u64 = 20190326;
/// Corpus scale relative to the paper (21,376 × 30,640 rows).
pub const SCALE: f64 = 16.0;
/// Worker threads: the host's two vCPUs.
pub const THREADS: usize = 2;
/// Builds of the program per run, spread evenly over the run so that
/// set-up time, the median of their times, averages over host drift.
pub const SETUP_REPS: usize = 9;

/// The generated x16 scenario and its projected match tables.
pub struct Inputs {
    pub scenario: Scenario,
    /// Projected UMETRICS awards (the left table; serve arrivals).
    pub u: Table,
    /// Projected USDA awards (the right table; the serve corpus).
    pub d: Table,
}

impl Inputs {
    /// Generates the x16 scenario with the auxiliary tables (employees,
    /// vendors, sub-awards, object codes) held at paper size, as the
    /// repository's corpus-scale runs do: none of them feeds a matched
    /// column, so generation stays proportional to what matching reads.
    pub fn generate() -> Res<Inputs> {
        let mut cfg = ScenarioConfig::scaled(SCALE).with_seed(SCENARIO_SEED);
        let paper = ScenarioConfig::paper();
        cfg.n_employees = paper.n_employees;
        cfg.n_vendors = paper.n_vendors;
        cfg.n_subawards = paper.n_subawards;
        cfg.n_object_codes = paper.n_object_codes;
        let scenario = Scenario::generate(cfg)?;
        let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let d = project_usda(&scenario.usda, true)?;
        Ok(Inputs { scenario, u, d })
    }

    /// The `(AwardNumber, AccessionNumber)` identifier of a row pair.
    pub fn id_pair(&self, left: usize, right: usize) -> (String, String) {
        let award = self
            .u
            .get(left, "AwardNumber")
            .map(|v| v.render())
            .unwrap_or_default();
        let acc = self
            .d
            .get(right, "AccessionNumber")
            .map(|v| v.render())
            .unwrap_or_default();
        (award, acc)
    }
}

/// Trains the frozen workflow at x1, as the repository's corpus-scale
/// runs do: the x1 scenario with the same seed, the small case-study
/// label budget.
pub fn train() -> Res<ServingArtifacts> {
    let mut cfg = CaseStudyConfig::small();
    cfg.scenario = ScenarioConfig::scaled(1.0).with_seed(SCENARIO_SEED);
    Ok(CaseStudy::new(cfg).train_serving_artifacts()?)
}

/// Match ids as a sorted list of owned pairs, for equality checks.
pub fn id_list(ids: &MatchIds) -> Vec<(String, String)> {
    ids.iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `q`-quantile (nearest rank on the sorted values) of `v`; 0 when
/// empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's cumulative `(steal, total)` CPU ticks over all CPUs, from
/// the `cpu` line of `/proc/stat`; zeros where it cannot be read. Steal is
/// time a virtual CPU was ready to run while the hypervisor ran someone
/// else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs do not
/// depend on any generator inside the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f00d_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// `k` distinct indices of `0..n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < k.min(n) {
            picked.insert(self.below(n));
        }
        picked.into_iter().collect()
    }

    /// A uniformly random permutation of `items` (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Set-up samples `(train_s, build_s)` taken on a schedule across the run:
/// the first before measuring starts, the rest as they fall due.
pub struct SetupSamples {
    samples: Vec<(f64, f64)>,
    start: Instant,
    seconds: f64,
}

impl SetupSamples {
    /// Starts the schedule with the build the run measures.
    pub fn new(first: (f64, f64), seconds: f64) -> SetupSamples {
        SetupSamples {
            samples: vec![first],
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether the next build is due (call at the run's loop boundaries).
    pub fn due(&self) -> bool {
        let n = self.samples.len();
        n < SETUP_REPS && secs(self.start) >= n as f64 * self.seconds / SETUP_REPS as f64
    }

    /// Builds still owed when the run ends.
    pub fn missing(&self) -> usize {
        SETUP_REPS - self.samples.len()
    }

    pub fn push(&mut self, sample: (f64, f64)) {
        self.samples.push(sample);
    }

    /// Reports `setup_s` and `core.train_s`; returns the median build time
    /// (the part after training).
    pub fn report(&self, rep: &mut Report) -> f64 {
        let s = &self.samples;
        rep.set(
            "setup_s",
            median(&s.iter().map(|x| x.0 + x.1).collect::<Vec<_>>()),
        );
        rep.set(
            "core.train_s",
            median(&s.iter().map(|x| x.0).collect::<Vec<_>>()),
        );
        rep.phase("set-up builds", s.len() as u64, 0);
        median(&s.iter().map(|x| x.1).collect::<Vec<_>>())
    }
}

/// One phase of the failure ledger.
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run reports: the ledger, the correctness checks and the
/// metrics of both kinds. Metric names are those of `BENCHMARK.json`.
#[derive(Default)]
pub struct Report {
    pub phases: Vec<Phase>,
    pub checks: Vec<(String, bool, String)>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            failed,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Operations attempted: every ledger operation plus every check.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum::<u64>() + self.checks.len() as u64
    }

    /// Operations failed: ledger failures plus failed checks.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>()
            + self.checks.iter().filter(|c| !c.1).count() as u64
    }
}
