//! Overhead guard for the observability layer.
//!
//! The acceptance bar: observability must cost ≤ 2% when disabled. A
//! disabled span / region / op / timer site is one relaxed load (all
//! four are the same guard over one switch word) and counters always
//! count. This bench measures a representative instrumented workload
//! (batch temporal sampling + dedup, the hottest counter paths) with
//! every span sink off vs. every sink on and draining, and the raw
//! per-site cost of each kind of site under each switch. A disabled
//! site made expensive shows as a regression of its row against the
//! parent commit's, which `scripts/ab` compares run for run. The span
//! log's per-thread tail is on in every real run, so its cost over the
//! all-off reference is **asserted** to fit the 2% budget.
//!
//! Single-core CI boxes jitter by a few percent on sub-microsecond
//! timings, so the tail guard compares medians of interleaved rounds
//! and allows a small absolute slack on top of the 2% relative budget.

use std::sync::Arc;

use tgl_bench::time_it;
use tgl_data::{generate, DatasetKind, DatasetSpec};
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tglite::obs;
use tglite::{op, prof, TBlock, TContext, TSampler};

/// Rounds of each interleaved comparison.
const ROUNDS: usize = 7;

/// Median seconds per call of `workload` under `set(false)` and under
/// `set(true)`, over [`ROUNDS`] rounds that time one then the other, so
/// slow drift (thermal, host load) hits both alike.
fn interleaved<R>(mut set: impl FnMut(bool), mut workload: impl FnMut() -> R) -> (f64, f64) {
    let mut rounds: [Vec<f64>; 2] = Default::default();
    for _ in 0..ROUNDS {
        for (on, times) in [false, true].into_iter().zip(&mut rounds) {
            set(on);
            times.push(time_it(|_| workload(), 0.15));
        }
    }
    let [off, on] = rounds.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[ROUNDS / 2]
    });
    (off, on)
}

fn main() {
    println!("== observability overhead guard ==");
    // One pool thread: the guard compares per-site costs, and on a
    // multi-core host whether a parked helper is warm swings the
    // sampler's parallel regions by 2x between rounds (disabled 61 us
    // vs 120 us re-measured, on the parent commit too).
    tgl_runtime::set_threads(1);
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(4);
    let (g, _) = generate(&spec);
    let ctx = TContext::new(Arc::clone(&g));
    let csr = g.tcsr();
    let n = 512usize;
    let nodes: Vec<u32> = (0..n as u32).map(|i| i % g.num_nodes() as u32).collect();
    let times: Vec<f64> = vec![g.max_time(); n];
    let sampler = TemporalSampler::new(10, SamplingStrategy::Recent);
    let blk_sampler = TSampler::new(10, SamplingStrategy::Recent);

    // The measured workload walks the hottest instrumented paths:
    // sampler counters, dedup counters, a region, a phase, an op and a
    // timer, a value histogram and a gauge store per iter — every kind
    // of site the telemetry layer plants in the training loop.
    let workload = || {
        let _r = tgl_obs::region("obs-overhead-step");
        let _s = prof::scope("obs-overhead-workload");
        let _lat = tgl_obs::timer("bench.workload");
        tgl_obs::histogram!("bench.workload_len").record(n as u64);
        // A per-op site, the kind every tensor kernel carries:
        // disabled it must be one relaxed load.
        let _op = tgl_obs::profile::op("bench.workload_op")
            .flops(64)
            .io(256, 256);
        let sample = sampler.sample(&csr, &nodes, &times);
        let blk = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        op::dedup(&blk);
        blk_sampler.sample(&blk);
        tgl_obs::gauge!("bench.block_len").set(sample.len() as f64);
        sample.len()
    };

    // Every span switch off, then all of them on; an on-round drains
    // the full log so it cannot grow across rounds. (The aggregate is
    // bounded by its keys; draining it just keeps rounds alike.)
    let all = |on: bool| {
        obs::log::take();
        prof::take();
        obs::collect(on);
        obs::log::full(on);
        obs::log::tail(on);
    };
    let (off_med, on_med) = interleaved(all, workload);
    all(false);
    println!("  disabled: {:>10.1} us/iter", off_med * 1e6);
    println!(
        "  enabled:  {:>10.1} us/iter  ({:+.2}%)",
        on_med * 1e6,
        (on_med / off_med - 1.0) * 100.0
    );
    // The enabled path is allowed to cost more (it does real work), but
    // flag pathological slowdowns loudly.
    if on_med > off_med * 1.25 {
        println!(
            "  note: enabled-observability overhead is {:.1}% — investigate before \
             relying on always-on tracing",
            (on_med / off_med - 1.0) * 100.0
        );
    }

    // Every run keeps the span log's tail, so unlike the other switches
    // its *enabled* cost must fit the same 2% + 5us budget: with
    // everything else off, tail-on rounds are interleaved against
    // all-off rounds and the medians compared.
    let (tail_base_med, tail_on_med) = interleaved(obs::log::tail, workload);
    obs::log::tail(false);
    println!(
        "  tail on:   {:>9.1} us/iter  ({:+.2}% over {:.1}us all-off)",
        tail_on_med * 1e6,
        (tail_on_med / tail_base_med - 1.0) * 100.0,
        tail_base_med * 1e6
    );
    assert!(
        tail_on_med <= tail_base_med * 1.02 + 5e-6,
        "the always-on span tail exceeds the 2% budget: {:.1}us > {:.1}us \
         (2% + 5us over the {:.1}us all-off baseline)",
        tail_on_med * 1e6,
        (tail_base_med * 1.02 + 5e-6) * 1e6,
        tail_base_med * 1e6
    );
    println!("  OK: always-on span tail within 2% budget");

    // Raw per-site cost of every kind of site, so `scripts/ab` can watch
    // them drift against the parent: a histogram record is a handful of
    // relaxed RMWs, a gauge set one relaxed store.
    const SITES: usize = 1_000_000;
    let hist_path = || {
        for i in 0..SITES {
            tgl_obs::histogram!("bench.micro_ns").record(i as u64 & 0xFFFF);
        }
        SITES
    };
    let gauge_path = || {
        for i in 0..SITES {
            tgl_obs::gauge!("bench.micro_level").set(i as f64);
        }
        SITES
    };
    let prof_op_path = || {
        for i in 0..SITES {
            let _g = tgl_obs::profile::op("bench.micro_op")
                .flops(i as u64 & 0xFF)
                .io(256, 256);
        }
        SITES
    };
    let site_ns = |f: &dyn Fn() -> usize| time_it(|_| f(), 0.5) / SITES as f64 * 1e9;
    let hist_ns = site_ns(&hist_path);
    let gauge_ns = site_ns(&gauge_path);
    // The four span sites over the one switch word. Ops and timers are
    // live only while collecting (the tail alone leaves them one
    // relaxed load); phases and regions are live whenever any sink is,
    // so tail-only is the cost every scope pays by default.
    let span_path = || {
        for _ in 0..SITES {
            let _g = obs::span("bench.micro_span");
        }
        SITES
    };
    let region_path = || {
        for _ in 0..SITES {
            let _g = obs::region("bench.micro_region");
        }
        SITES
    };
    let prof_off_ns = site_ns(&prof_op_path);
    let span_off_ns = site_ns(&span_path);
    let region_off_ns = site_ns(&region_path);
    obs::log::tail(true);
    let span_tail_ns = site_ns(&span_path);
    let region_tail_ns = site_ns(&region_path);
    let prof_tail_ns = site_ns(&prof_op_path);
    obs::log::tail(false);
    obs::collect(true);
    let prof_on_ns = site_ns(&prof_op_path);
    let span_collect_ns = site_ns(&span_path);
    obs::collect(false);
    obs::profile::take();
    println!("  hist.record:  {hist_ns:>6.2} ns/site");
    println!("  gauge.set:    {gauge_ns:>6.2} ns/site");
    println!(
        "  profile.op:   {prof_off_ns:>6.2} ns/site disabled, {prof_tail_ns:>6.2} ns/site tail-only, {prof_on_ns:>6.2} ns/site collecting"
    );
    println!(
        "  span:         {span_off_ns:>6.2} ns/site all-off, {span_tail_ns:>6.2} ns/site tail-only, {span_collect_ns:>6.2} ns/site collecting"
    );
    println!(
        "  region:       {region_off_ns:>6.2} ns/site all-off, {region_tail_ns:>6.2} ns/site tail-only"
    );

    let json = format!(
        "{{\n  \"host_cpus\": {},\n  \"workload\": {{\n    \"disabled\": {{\"wall_s\": {:.9}}},\n    \
         \"enabled\": {{\"wall_s\": {:.9}}},\n    \"overhead_pct\": {:.3},\n    \"tail_on\": {{\"wall_s\": {:.9}}},\n    \
         \"tail_overhead_pct\": {:.3}\n  }},\n  \"per_site_ns\": {{\n    \
         \"hist_record\": {:.2},\n    \"gauge_set\": {:.2},\n    \
         \"profile_op_disabled\": {:.2},\n    \"profile_op_tail_only\": {:.2},\n    \
         \"profile_op_enabled\": {:.2},\n    \
         \"span_all_off\": {:.2},\n    \"span_tail_on\": {:.2},\n    \"span_collecting\": {:.2},\n    \
         \"region_all_off\": {:.2},\n    \"region_tail_on\": {:.2}\n  }}\n}}\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        off_med,
        on_med,
        (on_med / off_med - 1.0) * 100.0,
        tail_on_med,
        (tail_on_med / tail_base_med - 1.0) * 100.0,
        hist_ns,
        gauge_ns,
        prof_off_ns,
        prof_tail_ns,
        prof_on_ns,
        span_off_ns,
        span_tail_ns,
        span_collect_ns,
        region_off_ns,
        region_tail_ns,
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    // The tail is on by default; leave the process the way a real one
    // runs.
    obs::log::tail(true);
}
