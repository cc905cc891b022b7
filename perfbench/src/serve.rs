//! `serve_open` (a wall-clock open loop through the micro-batcher into a
//! 2-shard tier) and `serve_ingest` (live corpus pushes beside match
//! requests, with checkpoint, WAL and recovery).

use crate::common::{
    id_list, mean, median, peak_rss_mib, quantile, secs, train, Inputs, Report, Res, Rng,
    SetupSamples, THREADS,
};
use em_core::pipeline::ServingArtifacts;
use em_core::stream::StreamMatcher;
use em_core::MatchIds;
use em_serve::{
    read_wal, BatchPolicy, MatchOutcome, MicroBatcher, OverloadPolicy, ShardedMatchService,
    WorkflowSnapshot,
};
use em_table::{Table, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Corpus shards of the tier.
const SHARDS: usize = 2;
/// Executor threads while serving: the shards are scattered inline, one
/// after the other. A scatter over 2 threads starts a worker on the other
/// virtual CPU for every batch. When the hypervisor is running other
/// guests, that idle CPU's wake-up waits for it, so the serve figures
/// follow the host's load more than the program's (README.md, "Host
/// drift"). Set-up still builds at `THREADS`, and the traced `serve_open`
/// run measures the 2-thread scatter apart.
const SERVE_THREADS: usize = 1;
/// Offered rate of the fixed-rate phase: well under the tier's capacity,
/// so batches close on their deadline and nothing queues for long.
const OFFERED_PER_S: f64 = 800.0;
/// Arrivals per fixed-rate segment (about one second at the offered rate).
const FIXED_ARRIVALS: usize = 800;
/// Full batches per saturation segment.
const SAT_BATCHES: usize = 60;
/// Rows per match request in `serve_ingest`: one full micro-batch, so
/// a request's cost is the matching and not the scatter's thread start-up.
const REQUEST_ROWS: usize = 8;
/// Corpus pushes per match request in `serve_ingest` (4 per requested row).
const PUSHES_PER_REQUEST: usize = 4 * REQUEST_ROWS;
/// Pushes between the set-up sample checks of `serve_ingest`.
const WINDOW_PUSHES: usize = 1024;
/// Arrival rows each tier is probed with after ingest.
const PROBE_ROWS: usize = 64;

/// A 2-shard tier over `corpus` with the trained workflow.
fn tier_over(art: &ServingArtifacts, corpus: Table) -> Res<ShardedMatchService> {
    let mut snapshot = WorkflowSnapshot::from_artifacts(art);
    snapshot.corpus = corpus;
    Ok(ShardedMatchService::from_snapshot(snapshot, SHARDS)?)
}

/// One set-up at `THREADS`: train the workflow, build the tier over
/// `corpus` and run `finish` on it (the checkpoint, for ingest). Returns
/// the program and its `(train_s, build_s)`, leaving the executor at
/// `SERVE_THREADS`.
fn build_once(
    corpus: &Table,
    finish: impl FnOnce(&mut ShardedMatchService) -> Res<()>,
) -> Res<(ServingArtifacts, ShardedMatchService, (f64, f64))> {
    em_parallel::set_threads(THREADS);
    let corpus = corpus.clone();
    let t = Instant::now();
    let art = train()?;
    let train_s = secs(t);
    let t = Instant::now();
    let mut tier = tier_over(&art, corpus)?;
    finish(&mut tier)?;
    let times = (train_s, secs(t));
    em_parallel::set_threads(SERVE_THREADS);
    Ok((art, tier, times))
}

/// Per-request layer split from each outcome's own `RequestTimings`, and
/// the per-batch shard legs from `match_rows_timed`.
#[derive(Default)]
struct Observed {
    requests: u64,
    candidates: u64,
    blocking_ms: f64,
    rules_ms: f64,
    features_ms: f64,
    predict_ms: f64,
    total_ms: f64,
    leg_ms: Vec<f64>,
    skew: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl Observed {
    /// Serves `rows` of `arrivals` as one batch; returns the outcomes and
    /// the call's wall time in ms.
    fn serve(
        &mut self,
        tier: &ShardedMatchService,
        arrivals: &Table,
        rows: &[usize],
    ) -> Result<(Vec<MatchOutcome>, f64), em_serve::ServeError> {
        let t = Instant::now();
        let (batch, legs) = tier.match_rows_timed(arrivals, rows)?;
        let wall_ms = secs(t) * 1e3;
        let slowest = legs.iter().copied().fold(0.0, f64::max);
        self.leg_ms.extend_from_slice(&legs);
        self.skew.push(slowest / mean(&legs).max(1e-9));
        self.overhead_ms.push(wall_ms - slowest);
        for o in &batch.outcomes {
            self.requests += 1;
            self.candidates += o.n_candidates as u64;
            self.blocking_ms += o.timings.blocking_ms;
            self.rules_ms += o.timings.rules_ms;
            self.features_ms += o.timings.features_ms;
            self.predict_ms += o.timings.predict_ms;
            self.total_ms += o.timings.total_ms;
        }
        Ok((batch.outcomes, wall_ms))
    }

    /// Reports the per-request layer split.
    fn report(&self, rep: &mut Report) {
        let n = self.requests.max(1) as f64;
        rep.set("serve.blocking_ms", self.blocking_ms / n);
        rep.set("serve.rules_ms", self.rules_ms / n);
        rep.set("serve.features_ms", self.features_ms / n);
        rep.set("serve.predict_ms", self.predict_ms / n);
        rep.set("serve.candidates_per_request", self.candidates as f64 / n);
        rep.set(
            "serve.ns_per_candidate",
            self.total_ms * 1e6 / self.candidates.max(1) as f64,
        );
    }

    /// Reports the shard legs and the scatter's overhead.
    fn report_shards(&self, rep: &mut Report) {
        rep.set("shard.leg_ms", median(&self.leg_ms));
        rep.set("shard.skew", median(&self.skew));
        rep.set("shard.overhead_ms", median(&self.overhead_ms));
    }
}

/// Saturation segments and their ledger.
#[derive(Default)]
struct Saturation {
    rates: Vec<f64>,
    pairs: Vec<f64>,
    attempted: u64,
    errors: u64,
    not_full: u64,
}

impl Saturation {
    /// One segment of `SAT_BATCHES` full batches, back to back: the
    /// backlog always holds a full batch, so every batch closes on size
    /// and the tier never idles.
    #[allow(clippy::too_many_arguments)]
    fn segment(
        &mut self,
        tier: &ShardedMatchService,
        arrivals: &Table,
        batcher: &mut MicroBatcher,
        rng: &mut Rng,
        now_ms: &dyn Fn() -> f64,
        obs: &mut Observed,
        served: &mut Vec<(usize, MatchIds)>,
    ) {
        let max_batch = BatchPolicy::default().max_batch;
        let size0 = batcher.size_closed();
        let (c0, r0) = (obs.candidates, obs.requests);
        let t = Instant::now();
        for _ in 0..SAT_BATCHES {
            let now = now_ms();
            for _ in 0..max_batch {
                self.attempted += 1;
                if batcher
                    .submit_at(rng.below(arrivals.n_rows()), now, 0, 0)
                    .is_err()
                {
                    self.errors += 1;
                }
            }
            while let Some(b) = batcher.pop_closed() {
                match obs.serve(tier, arrivals, &b.rows) {
                    Ok((outcomes, _)) => {
                        for (k, o) in outcomes.into_iter().enumerate() {
                            served.push((b.rows[k], o.ids));
                        }
                    }
                    Err(e) => {
                        eprintln!("serve_open: batch failed: {e}");
                        self.errors += b.rows.len() as u64;
                    }
                }
            }
        }
        let wall = secs(t);
        self.not_full += SAT_BATCHES as u64 - (batcher.size_closed() - size0);
        self.rates.push((obs.requests - r0) as f64 / wall);
        self.pairs.push((obs.candidates - c0) as f64 / wall);
    }
}

/// The stream path's match ids for every left row, the reference every
/// served outcome must equal.
fn stream_ids(inp: &Inputs, art: &ServingArtifacts) -> Res<Vec<Vec<(String, String)>>> {
    em_parallel::set_threads(THREADS);
    let sm = StreamMatcher::new(&inp.u, &inp.d, &art.matcher, &art.rule_descs, &art.plan)?;
    let (_, _, matches) = sm.run_collecting();
    let mut by_row: Vec<BTreeSet<(String, String)>> = vec![BTreeSet::new(); inp.u.n_rows()];
    for p in matches {
        by_row[p.left].insert(inp.id_pair(p.left, p.right));
    }
    Ok(by_row
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect())
}

pub fn run_open(inp: &Inputs, seed: u64, seconds: f64, trace: bool, rep: &mut Report) -> Res<()> {
    let (art, tier, first_build) = build_once(&inp.d, |_| Ok(()))?;

    let n_rows = inp.u.n_rows();
    let policy = BatchPolicy::default();
    let mut batcher = MicroBatcher::new(policy, OverloadPolicy::default(), SHARDS);
    let mut rng = Rng::new(seed);
    let mut obs = Observed::default();
    let mut served: Vec<(usize, MatchIds)> = Vec::new();
    let mut errors = 0u64;
    let origin = Instant::now();
    let now_ms = || origin.elapsed().as_secs_f64() * 1e3;

    // Warm-up: a few full batches, outside every figure.
    let mut warm = Observed::default();
    for _ in 0..SAT_BATCHES / 4 {
        let rows: Vec<usize> = (0..policy.max_batch).map(|_| rng.below(n_rows)).collect();
        warm.serve(&tier, &inp.u, &rows)?;
    }

    let mut latency_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut batch_rows = Vec::new();
    let mut sched_time = Duration::ZERO;
    let mut late_ms = 0.0f64;
    let mut closes = (0u64, 0u64);
    let mut sat = Saturation::default();
    // Traced runs only: saturation segments with the scatter on `THREADS`.
    let mut par = Saturation::default();
    let mut par_obs = Observed::default();
    let mut fixed_attempted = 0u64;
    let mut setup = SetupSamples::new(first_build, seconds);
    let t_run = Instant::now();
    while sat.rates.is_empty() || secs(t_run) < seconds {
        // Fixed-rate segment: seeded exponential arrivals, each timed from
        // the instant it was due, however late the loop admits it.
        let (size0, dead0) = (batcher.size_closed(), batcher.deadline_closed());
        let mut due = now_ms();
        let arrivals: Vec<(f64, usize)> = (0..FIXED_ARRIVALS)
            .map(|_| {
                due += rng.exp(1e3 / OFFERED_PER_S);
                (due, rng.below(n_rows))
            })
            .collect();
        fixed_attempted += arrivals.len() as u64;
        let mut next = 0;
        loop {
            let now = now_ms();
            let t_sched = trace.then(Instant::now);
            while next < arrivals.len() && arrivals[next].0 <= now {
                let (at, row) = arrivals[next];
                late_ms = late_ms.max(now - at);
                if batcher.submit_at(row, at, 0, 0).is_err() {
                    errors += 1;
                }
                next += 1;
            }
            batcher.tick(now);
            if next == arrivals.len() {
                batcher.flush(now);
            }
            let mut closed = Vec::new();
            while let Some(b) = batcher.pop_closed() {
                closed.push(b);
            }
            if let Some(t) = t_sched {
                sched_time += t.elapsed();
            }
            for b in &closed {
                let start = now_ms();
                batch_rows.push(b.rows.len() as f64);
                match obs.serve(&tier, &inp.u, &b.rows) {
                    Ok((outcomes, _)) => {
                        let done = now_ms();
                        for (k, o) in outcomes.into_iter().enumerate() {
                            latency_ms.push(done - b.arrived_ms[k]);
                            queue_ms.push(start - b.arrived_ms[k]);
                            served.push((b.rows[k], o.ids));
                        }
                    }
                    Err(e) => {
                        eprintln!("serve_open: batch failed: {e}");
                        errors += b.rows.len() as u64;
                    }
                }
            }
            if next == arrivals.len() && batcher.open_len() == 0 && batcher.ready_len() == 0 {
                break;
            }
            if closed.is_empty() {
                // Busy-wait for the next arrival or deadline. A sleeping
                // thread's wake-up waits on the hypervisor when the host
                // is busy, and that wait would land in every latency.
                let mut wake = arrivals.get(next).map_or(f64::INFINITY, |a| a.0);
                if let Some(deadline) = batcher.deadline_at() {
                    wake = wake.min(deadline);
                }
                while wake.is_finite() && now_ms() < wake {
                    std::hint::spin_loop();
                }
            }
        }
        closes.0 += batcher.size_closed() - size0;
        closes.1 += batcher.deadline_closed() - dead0;

        sat.segment(
            &tier,
            &inp.u,
            &mut batcher,
            &mut rng,
            &now_ms,
            &mut obs,
            &mut served,
        );
        if trace {
            em_parallel::set_threads(THREADS);
            par.segment(
                &tier,
                &inp.u,
                &mut batcher,
                &mut rng,
                &now_ms,
                &mut par_obs,
                &mut served,
            );
            em_parallel::set_threads(SERVE_THREADS);
        }
        if sat.rates.len() == 1 {
            // Memory of the inputs and the serving tier alone, after one
            // round of both phases: read before the first set-up sample.
            rep.set("peak_rss_mib", peak_rss_mib());
        }
        if setup.due() {
            setup.push(build_once(&inp.d, |_| Ok(()))?.2);
        }
    }
    for _ in 0..setup.missing() {
        setup.push(build_once(&inp.d, |_| Ok(()))?.2);
    }
    let build_s = setup.report(rep);
    rep.set("serve.build_s", build_s);
    rep.set("ingest_rows_per_s", inp.d.n_rows() as f64 / build_s);
    rep.phase("fixed-rate arrivals", fixed_attempted, errors);
    rep.phase("saturation arrivals", sat.attempted, sat.errors);
    if trace {
        rep.phase("2-thread saturation arrivals", par.attempted, par.errors);
    }

    rep.set("requests_per_s", median(&sat.rates));
    rep.set("pairs_per_s", median(&sat.pairs));
    rep.set("p50_ms", median(&latency_ms));
    rep.set("latency.p99_ms", quantile(&latency_ms, 0.99));
    rep.set(
        "sched.admit_ns",
        sched_time.as_secs_f64() * 1e9 / fixed_attempted.max(1) as f64,
    );
    rep.set("sched.queue_wait_ms", median(&queue_ms));
    rep.set("sched.batch_rows", mean(&batch_rows));
    rep.set("sched.size_closed", closes.0 as f64);
    rep.set("sched.deadline_closed", closes.1 as f64);
    rep.set("loadgen.late_ms", late_ms);
    obs.report(rep);
    par_obs.report_shards(rep);
    eprintln!(
        "serve_open: {} fixed-rate arrivals (p50 {:.3} ms, p99 {:.3} ms), {} saturation segments \
         (median {:.0} req/s)",
        latency_ms.len(),
        median(&latency_ms),
        quantile(&latency_ms, 0.99),
        sat.rates.len(),
        median(&sat.rates)
    );
    if trace {
        eprintln!(
            "serve_open: 2-thread scatter, median {:.0} req/s in saturation",
            median(&par.rates)
        );
    }

    let completed = served.len() as u64;
    rep.check(
        "admitted = completed, nothing shed",
        batcher.admitted() == completed && batcher.shed() == 0,
        format!(
            "admitted {}, completed {completed}, shed {}",
            batcher.admitted(),
            batcher.shed()
        ),
    );
    let not_full = sat.not_full + par.not_full;
    rep.check(
        "every saturation batch closed full",
        not_full == 0,
        format!("{not_full} saturation batches closed short"),
    );
    let reference = stream_ids(inp, &art)?;
    let differ = served
        .iter()
        .filter(|(row, ids)| id_list(ids) != reference[*row])
        .count();
    rep.check(
        "served ids = stream ids for the same row",
        differ == 0,
        format!("{differ} of {completed} served arrivals differ"),
    );
    Ok(())
}

fn shard_wal(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.wal"))
}

/// Empties (or creates) `dir`.
fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(())
}

/// Set-up finisher: checkpoint the tier into an emptied `dir`, which also
/// attaches a fresh WAL there.
fn checkpoint_to(dir: &Path) -> impl FnOnce(&mut ShardedMatchService) -> Res<()> + '_ {
    move |tier| {
        fresh_dir(dir)?;
        Ok(tier.checkpoint(dir)?)
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    (0..SHARDS)
        .filter_map(|s| std::fs::metadata(shard_wal(dir, s)).ok())
        .map(|m| m.len())
        .sum()
}

/// Match ids of `rows` on `tier`, row by row.
fn probe_ids(
    tier: &ShardedMatchService,
    arrivals: &Table,
    rows: &[usize],
) -> Res<Vec<Vec<(String, String)>>> {
    let (batch, _) = tier.match_rows_timed(arrivals, rows)?;
    Ok(batch.outcomes.iter().map(|o| id_list(&o.ids)).collect())
}

pub fn run_ingest(inp: &Inputs, seed: u64, seconds: f64, rep: &mut Report) -> Res<()> {
    let half = inp.d.n_rows() / 2;
    let mut first = Table::new(inp.d.name(), inp.d.schema().clone());
    for row in &inp.d.rows()[..half] {
        first.push_row(row.clone())?;
    }
    let second: &[Vec<Value>] = &inp.d.rows()[half..];
    // Scratch directories inside the working directory, one per process:
    // the live tier's checkpoint and WAL, and the set-up samples'.
    let work = PathBuf::from(".perfbench-work").join(format!("ingest-{}", std::process::id()));
    let dir = work.join("live");
    let sample_dir = work.join("sample");
    let result = (|| -> Res<()> {
        let (art, mut tier, first_build) = build_once(&first, checkpoint_to(&dir))?;
        let mut setup = SetupSamples::new(first_build, seconds);

        let n_rows = inp.u.n_rows();
        let mut rng = Rng::new(seed);
        let mut obs = Observed::default();
        let mut push_us = Vec::new();
        let mut match_ms = Vec::new();
        // Time spent in pushes and in match requests over the whole run:
        // the rates are totals, so that requested rows and candidates per
        // second divide the same time.
        let (mut push_s, mut match_s) = (0.0, 0.0);
        let mut recover_s = Vec::new();
        let mut replay_rates = Vec::new();
        let mut bytes_per_row = Vec::new();
        let mut rows_skew = Vec::new();
        let (mut pushes, mut push_failed, mut matches, mut match_failed) = (0u64, 0u64, 0u64, 0u64);
        let (mut wal_ok, mut replay_ok, mut probes_ok) = (true, true, true);
        let t_run = Instant::now();
        let mut cycle = 0;
        while cycle == 0 || secs(t_run) < seconds {
            if cycle > 0 {
                tier = tier_over(&art, first.clone())?;
                checkpoint_to(&dir)(&mut tier)?;
            }
            let header = wal_bytes(&dir);
            let mut order: Vec<usize> = (0..second.len()).collect();
            rng.shuffle(&mut order);
            let mut pushed = Vec::with_capacity(order.len());
            for window in order.chunks(WINDOW_PUSHES) {
                for block in window.chunks(PUSHES_PER_REQUEST) {
                    for &k in block {
                        let row = second[k].clone();
                        let t = Instant::now();
                        let ok = tier.push_corpus_row(row).is_ok();
                        let dt = secs(t);
                        push_us.push(dt * 1e6);
                        push_s += dt;
                        pushes += 1;
                        if ok {
                            pushed.push(k);
                        } else {
                            push_failed += 1;
                        }
                    }
                    let rows: Vec<usize> = (0..REQUEST_ROWS).map(|_| rng.below(n_rows)).collect();
                    matches += REQUEST_ROWS as u64;
                    match obs.serve(&tier, &inp.u, &rows) {
                        Ok((_, ms)) => {
                            match_ms.push(ms);
                            match_s += ms / 1e3;
                        }
                        Err(e) => {
                            eprintln!("serve_ingest: request failed: {e}");
                            match_failed += REQUEST_ROWS as u64;
                        }
                    }
                }
                // No set-up samples in the first cycle, so that its end
                // reads the memory of the live tier alone.
                if cycle > 0 && setup.due() {
                    setup.push(build_once(&first, checkpoint_to(&sample_dir))?.2);
                }
            }

            if cycle == 0 {
                // Memory of the inputs and the live tier at its largest,
                // the whole corpus pushed: read before the WAL is read back
                // and the recovered and fresh tiers are built.
                rep.set("peak_rss_mib", peak_rss_mib());
            }

            // Durability: one WAL record per push, and recovery replays
            // them all.
            let records: usize = (0..SHARDS)
                .map(|s| read_wal(&shard_wal(&dir, s)).map_or(0, |w| w.records.len()))
                .sum();
            wal_ok &= records == pushed.len();
            bytes_per_row.push((wal_bytes(&dir) - header) as f64 / pushed.len().max(1) as f64);
            let t = Instant::now();
            let (recovered, reports) = ShardedMatchService::recover(&dir, SHARDS)?;
            let rs = secs(t);
            let replayed: usize = reports.iter().map(|r| r.replayed).sum();
            replay_ok &= replayed == pushed.len();
            recover_s.push(rs);
            replay_rates.push(replayed as f64 / rs);
            let stats = tier.stats();
            let most = stats.rows_per_shard.iter().copied().max().unwrap_or(0) as f64;
            rows_skew.push(most / (stats.corpus_rows as f64 / SHARDS as f64));

            // The live tier, a tier built afresh over the final corpus and
            // the recovered tier must answer alike.
            let mut final_corpus = first.clone();
            for &k in &pushed {
                final_corpus.push_row(second[k].clone())?;
            }
            let fresh = tier_over(&art, final_corpus)?;
            let probe = rng.sample(n_rows, PROBE_ROWS);
            let live_ids = probe_ids(&tier, &inp.u, &probe)?;
            probes_ok &= live_ids == probe_ids(&fresh, &inp.u, &probe)?
                && live_ids == probe_ids(&recovered, &inp.u, &probe)?;
            cycle += 1;
        }
        for _ in 0..setup.missing() {
            setup.push(build_once(&first, checkpoint_to(&sample_dir))?.2);
        }
        let build_s = setup.report(rep);
        rep.set("serve.build_s", build_s);
        rep.phase("corpus pushes", pushes, push_failed);
        rep.phase("requested rows", matches, match_failed);
        rep.phase("recoveries", cycle as u64, 0);
        rep.check(
            "WAL records = pushes",
            wal_ok,
            format!("{cycle} ingest cycles"),
        );
        rep.check(
            "recovery replays every push",
            replay_ok,
            format!("{cycle} recoveries"),
        );
        rep.check(
            "live = fresh = recovered ids on probe rows",
            probes_ok,
            format!("{PROBE_ROWS} probe rows per cycle"),
        );

        rep.set("ingest_rows_per_s", (pushes - push_failed) as f64 / push_s);
        rep.set("requests_per_s", obs.requests as f64 / match_s);
        rep.set("pairs_per_s", obs.candidates as f64 / match_s);
        rep.set("p50_ms", median(&match_ms));
        rep.set("latency.p99_ms", quantile(&match_ms, 0.99));
        rep.set("serve.push_us", median(&push_us));
        rep.set("wal.bytes_per_row", median(&bytes_per_row));
        rep.set("shard.rows_skew", median(&rows_skew));
        rep.set("wal.recover_s", median(&recover_s));
        rep.set("wal.replay_rows_per_s", median(&replay_rates));
        obs.report(rep);
        eprintln!(
            "serve_ingest: {cycle} cycles, {pushes} pushes, {matches} requested rows (p50 {:.3} ms)",
            median(&match_ms)
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    result
}
