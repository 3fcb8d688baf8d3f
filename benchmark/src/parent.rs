//! The parent side: guards, one child process at a time, printing, and
//! the comparisons that need more than one child's result.

use std::process::{Command, Stdio};
use std::time::Instant;

use tgl_data::Json;

use crate::measure::{self, Request};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workload::{Workload, WORKLOADS};
use crate::{host, Options};

type Outcome = Result<bool, String>;

/// `child`: measure one workload in this process and print the result
/// document as the only line on standard output.
pub fn child(o: &Options) -> Outcome {
    let req = Request {
        workload: o.workload.ok_or("child needs --workload")?,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace.ok_or("child needs --trace")?,
        scale: o.scale,
    };
    let doc = if req.trace {
        measure::traced(&req)
    } else {
        measure::untraced(&req)
    };
    println!("{}", doc.render());
    Ok(true)
}

/// Starts this binary again as `child` for one workload and one trace
/// mode, waits for it, and returns its result document.
fn spawn(w: &Workload, o: &Options, trace: bool) -> Result<Json, String> {
    let cores = host::nproc();
    if cores < w.busy_threads() {
        return Err(format!(
            "{} keeps {} threads busy and this host has {cores} core(s): its numbers would be a flat series, not a measurement",
            w.name,
            w.busy_threads()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &o.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for (key, _) in host::tgl_env() {
        cmd.env_remove(key);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the {} child failed ({}): every batch it had left counts as failed",
            w.name, out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("the child printed nothing")?;
    Json::parse(last).map_err(|e| format!("the child's result does not parse: {e}"))
}

fn report_env() {
    for (key, value) in host::tgl_env() {
        println!("note: {key}={value} is set here; it is removed from the benchmark's environment");
    }
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("result lacks {path:?}"))
}

fn text<'a>(doc: &'a Json, path: &[&str]) -> &'a str {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("result lacks {path:?}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

fn metric(doc: &Json, name: &str) -> f64 {
    num(doc, &["metrics", name, "value"])
}

fn correct(doc: &Json) -> bool {
    doc.get("correct") == Some(&Json::Bool(true))
}

/// Prints one child's result: stamp, every metric by name with its
/// unit, the run's side information, units and checks.
fn print_result(doc: &Json) {
    let traced = doc.get("trace") == Some(&Json::Bool(true));
    let s = |k: &str| {
        doc.get("stamp")
            .and_then(|s| s.get(k))
            .map_or_else(String::new, Json::render)
    };
    println!(
        "\n== {} ({}) seed {} scale {} | nproc {} simd {} kernel {} threads {} pipeline {} | commit {} rustc {}",
        text(doc, &["workload"]),
        if traced { "traced" } else { "untraced" },
        s("seed"),
        s("scale"),
        s("nproc"),
        s("simd"),
        s("kernel"),
        s("threads"),
        s("pipeline"),
        s("git_commit"),
        s("rustc"),
    );
    let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    for d in defs {
        let bound = d
            .bound
            .map_or_else(String::new, |b| format!(", bound {:.0}%", b * 100.0));
        println!(
            "  {:<34} {:>16.6} {:<12} ({} is better{bound})",
            d.name,
            metric(doc, d.name),
            d.unit,
            d.better
        );
    }
    if let Some(Json::Obj(info)) = doc.get("info") {
        for (k, v) in info {
            println!("  info {k} = {}", v.render());
        }
    }
    for (i, u) in list(doc, "units").iter().enumerate() {
        let loss = u.get("loss_hex").and_then(Json::as_str).unwrap_or("-");
        println!(
            "  unit {i}: wall {:.4} s  loss bits {loss}  AP bits {} ({:.4})",
            num(u, &["wall_s"]),
            text(u, &["ap_hex"]),
            num(u, &["ap"])
        );
    }
    println!(
        "  batches: {} attempted, {} failed",
        num(doc, &["attempted"]),
        num(doc, &["failed"])
    );
    for c in list(doc, "checks") {
        let ok = c.get("ok") == Some(&Json::Bool(true));
        println!(
            "  check {:<30} {}  {}",
            text(c, &["name"]),
            if ok { "ok  " } else { "FAIL" },
            text(c, &["detail"])
        );
    }
}

/// The per-unit values that must repeat exactly for the same seed.
fn unit_fingerprints(doc: &Json) -> Vec<String> {
    list(doc, "units")
        .iter()
        .map(|u| {
            let loss = u.get("loss_hex").and_then(Json::as_str).unwrap_or("-");
            format!(
                "loss {loss} ap {} counts {}",
                text(u, &["ap_hex"]),
                u.get("counts").map_or_else(String::new, Json::render)
            )
        })
        .collect()
}

fn loss_bits(doc: &Json) -> Vec<&str> {
    list(doc, "units")
        .iter()
        .filter_map(|u| u.get("loss_hex").and_then(Json::as_str))
        .collect()
}

/// The thread-count-invariance contract, across the two workloads that
/// differ only in thread count: per-epoch losses equal bit for bit
/// over the epochs both ran.
fn threads_agree(results: &[(&Workload, Json)]) -> Option<bool> {
    let find = |name: &str| results.iter().find(|(w, _)| w.name == name).map(|(_, d)| d);
    let (two, one) = (find("tgat_train")?, find("tgat_train_1t")?);
    let (a, b) = (loss_bits(two), loss_bits(one));
    let n = a.len().min(b.len());
    let same = n > 0 && a[..n] == b[..n];
    println!(
        "\ncheck losses_equal_across_thread_counts    {}  first {n} epochs of tgat_train {:?} vs tgat_train_1t {:?}",
        if same { "ok  " } else { "FAIL" },
        &a[..n],
        &b[..n]
    );
    println!(
        "  runtime.scaling_eff from the two untraced edges_per_s: {:.4}",
        metric(two, "edges_per_s") / (2.0 * metric(one, "edges_per_s"))
    );
    Some(same)
}

fn selected(o: &Options) -> Vec<&'static Workload> {
    WORKLOADS
        .iter()
        .filter(|w| o.workload.is_none_or(|only| only.name == w.name))
        .collect()
}

/// `run`: each selected workload in its own child, untraced and/or
/// traced. With one workload and one trace mode the last line printed
/// is the result object BENCHMARK.json's contract asks for.
pub fn run(o: &Options) -> Outcome {
    report_env();
    let modes: &[bool] = match o.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut passed = true;
    let mut untraced = Vec::new();
    let mut last = None;
    for w in selected(o) {
        for &trace in modes {
            let doc = spawn(w, o, trace)?;
            print_result(&doc);
            passed &= correct(&doc);
            if !trace {
                untraced.push((w, doc.clone()));
            }
            last = Some(doc);
        }
    }
    passed &= threads_agree(&untraced).unwrap_or(true);
    println!(
        "\nbenchmark: {}",
        if passed {
            "every check passed"
        } else {
            "A CHECK FAILED"
        }
    );
    if let (Some(_), Some(_), Some(doc)) = (o.workload, o.trace, last) {
        let pick = |k: &str| (k.to_string(), doc.get(k).cloned().unwrap_or(Json::Null));
        println!(
            "{}",
            Json::obj(
                ["correct", "attempted", "failed", "metrics"]
                    .map(pick)
                    .to_vec()
            )
            .render()
        );
    }
    Ok(passed)
}

/// `agree`: the untraced benchmark `--sets` times back to back; every
/// later set must agree with the first within each metric's bound, and
/// exactly on losses, APs and exact-repeat counts.
pub fn agree(o: &Options) -> Outcome {
    report_env();
    let mut sets: Vec<Vec<(&Workload, Json)>> = Vec::new();
    let mut passed = true;
    for set in 0..o.sets {
        println!("\n#### set {} of {}", set + 1, o.sets);
        let mut results = Vec::new();
        for w in selected(o) {
            let doc = spawn(w, o, false)?;
            print_result(&doc);
            passed &= correct(&doc);
            results.push((w, doc));
        }
        passed &= threads_agree(&results).unwrap_or(true);
        sets.push(results);
    }
    println!("\n#### agreement of each later set with set 1");
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set k", "diff", "bound"
    );
    let (first, later) = sets.split_first().expect("--sets >= 2");
    for set in later {
        for ((w, a), (_, b)) in first.iter().zip(set) {
            for d in &END_TO_END {
                let (va, vb) = (metric(a, d.name), metric(b, d.name));
                let diff = (vb - va) / va;
                let bound = d.bound.expect("end-to-end metrics have bounds");
                // A breach is the later set reading worse by more than
                // the bound, which is what the bound is defined on.
                let worse = if d.better == "lower" { diff } else { -diff };
                let ok = worse <= bound;
                passed &= ok;
                println!(
                    "{:<14} {:<16} {va:>14.5} {vb:>14.5} {:>+8.2}% {:>6.0}% {}",
                    w.name,
                    d.name,
                    diff * 100.0,
                    bound * 100.0,
                    if ok { "" } else { "BREACH" }
                );
            }
            let (fa, fb) = (unit_fingerprints(a), unit_fingerprints(b));
            let n = fa.len().min(fb.len());
            let same = fa[..n] == fb[..n];
            passed &= same;
            println!(
                "{:<14} losses, APs and exact-repeat counts of the first {n} units {}",
                w.name,
                if same { "identical" } else { "DIFFER" }
            );
            if !same {
                println!("  set 1: {:#?}\n  set k: {:#?}", &fa[..n], &fb[..n]);
            }
        }
    }
    println!(
        "\nagree: {}",
        if passed {
            "the sets agree"
        } else {
            "THE SETS DISAGREE OR A CHECK FAILED"
        }
    );
    Ok(passed)
}

/// `smoke`: every workload, untraced and traced, on a dataset an
/// eighth the size with one timed unit each.
pub fn smoke() -> Outcome {
    let start = Instant::now();
    let o = Options {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: None,
        scale: 8,
        sets: 2,
    };
    let passed = run(&o)?;
    println!("smoke: {:.1} s", start.elapsed().as_secs_f64());
    Ok(passed)
}
