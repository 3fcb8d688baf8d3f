//! Usage errors must name the offending flag and exit non-zero before
//! any training starts — never a silent `loss 0.0000  val AP  0.00%`.

use std::process::Command;

fn tgl_train(extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tgl"))
        .args(["train", "--model", "tgat", "--dataset", "wiki", "--scale", "16", "--epochs", "1"])
        .args(extra)
        .output()
        .expect("run tgl");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_batch_size_is_a_usage_error() {
    let (code, stdout, stderr) = tgl_train(&["--batch", "0"]);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(stderr.contains("--batch"), "error must name the flag: {stderr}");
    assert!(!stdout.contains("loss"), "must not train: {stdout}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let (code, stdout, stderr) = tgl_train(&["--threads", "0"]);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(stderr.contains("--threads"), "error must name the flag: {stderr}");
    assert!(!stdout.contains("loss"), "must not train: {stdout}");
}

#[test]
fn a_pool_wider_than_the_bound_is_a_usage_error() {
    // It used to reach the first parallel region, whose failed worker
    // spawns aborted the process. Rejected before any region runs.
    let (code, stdout, stderr) = tgl_train(&["--threads", "100000"]);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(stderr.contains("--threads") && stderr.contains("1024"), "error must name the flag and its bound: {stderr}");
    assert!(!stdout.contains("loss"), "must not train: {stdout}");
}

#[test]
fn unusable_tgl_threads_is_a_usage_error() {
    // Each but the last used to run at the host's width and exit 0; the
    // last aborted at the first parallel region.
    for value in ["0", "two", "-1", "100000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tgl"))
            .env("TGL_THREADS", value)
            .args(["train", "--model", "tgat", "--dataset", "wiki", "--scale", "16", "--epochs", "1"])
            .output()
            .expect("run tgl");
        let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(2), "TGL_THREADS={value}: stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "TGL_THREADS={value}: one-line error: {stderr}");
        assert!(stderr.contains("TGL_THREADS"), "error must name the variable: {stderr}");
        assert!(!stdout.contains("loss"), "TGL_THREADS={value}: must not train: {stdout}");
    }
}

#[test]
fn unusable_tgl_simd_is_a_usage_error() {
    // It used to run `avx2` silently at the host's highest level.
    let out = Command::new(env!("CARGO_BIN_EXE_tgl"))
        .env("TGL_SIMD", "avx2")
        .args(["train", "--model", "tgat", "--dataset", "wiki", "--scale", "16", "--epochs", "1"])
        .output()
        .expect("run tgl");
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(
        stderr.contains("TGL_SIMD") && stderr.contains("off, 0, scalar or auto"),
        "error must name the variable and its values: {stderr}"
    );
    assert!(!stdout.contains("loss"), "must not train: {stdout}");
}

#[test]
fn zero_scale_is_a_usage_error() {
    // `--scale` appears twice: the later, offending value wins.
    let (code, stdout, stderr) = tgl_train(&["--scale", "0"]);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(stderr.contains("--scale"), "error must name the flag: {stderr}");
    assert!(!stdout.contains("loss"), "must not train: {stdout}");
}

#[test]
fn unusable_numbers_are_usage_errors_before_training() {
    // Each used to panic with a backtrace (exit 101, a `flight-*.json`
    // left in the working directory) or train on a shape a model
    // rejects mid-run, or (`--epochs 0`, `--neighbors 0`) ran a
    // degenerate experiment to exit 0.
    let dir = std::env::temp_dir().join(format!("tgl-bad-numbers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (flag, value) in [
        ("--seed", "-1"),
        ("--lr", "abc"),
        ("--epochs", "-1"),
        ("--epochs", "0"),
        ("--neighbors", "ten"),
        ("--neighbors", "0"),
        ("--heads", "3"),
        ("--heads", "0"),
        ("--layers", "0"),
        ("--emb-dim", "0"),
        ("--time-dim", "0"),
        ("--lr", "nan"),
        ("--lr", "inf"),
        ("--lr", "-0.1"),
        ("--lr", "0"),
        ("--mailbox", "0"),
        ("--profile-top", "0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tgl"))
            .current_dir(&dir)
            .args(["train", "--model", "tgat", "--dataset", "wiki", "--scale", "16", "--epochs", "1", flag, value])
            .output()
            .expect("run tgl");
        let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: one-line error: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: error must name the flag: {stderr}");
        assert!(stdout.is_empty(), "{flag} {value}: must not start a run: {stdout}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(left.is_empty(), "a usage error left files behind: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_epoch_of_skipped_batches_fails_the_run() {
    // A diverging learning rate: the health policy skips every batch of
    // the last epoch, which must read as a failure, not `loss 0.0000`.
    let (code, stdout, stderr) = tgl_train(&["--scale", "8", "--epochs", "2", "--lr", "1e18"]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("epoch  2: loss NaN (4 of 4 batches skipped)"), "{stdout}");
    assert!(!stdout.contains("loss 0.0000"), "{stdout}");
    assert!(stderr.contains("applied no optimizer step"), "{stderr}");
}

fn tgl_eval_ckpt(path: &std::path::Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tgl"))
        .args(["eval", "--model", "tgat", "--dataset", "wiki", "--scale", "16", "--ckpt"])
        .arg(path)
        .output()
        .expect("run tgl");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn missing_checkpoint_is_a_one_line_error() {
    let path = std::env::temp_dir().join(format!("tgl-no-such-ckpt-{}.tglt", std::process::id()));
    let (code, stdout, stderr) = tgl_eval_ckpt(&path);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error, no backtrace: {stderr}");
    assert!(stderr.contains("--ckpt") && stderr.contains(path.to_str().unwrap()), "{stderr}");
    assert!(!stdout.contains("test AP"), "must not evaluate: {stdout}");
}

#[test]
fn garbage_checkpoint_is_a_one_line_error() {
    let path = std::env::temp_dir().join(format!("tgl-garbage-ckpt-{}.tglt", std::process::id()));
    // A valid header for zero tensors, then noise; and plain noise.
    let truncated = [&b"TGLT"[..], &2u32.to_le_bytes(), &0u32.to_le_bytes(), b"junk"].concat();
    for (bytes, reason) in [(truncated, "tensors"), (b"not a checkpoint at all".to_vec(), "TGLT")] {
        std::fs::write(&path, bytes).expect("write fixture");
        let (code, stdout, stderr) = tgl_eval_ckpt(&path);
        assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one-line error, no backtrace: {stderr}");
        assert!(stderr.contains(path.to_str().unwrap()), "error must name the file: {stderr}");
        assert!(stderr.contains(reason), "error must give the reason: {stderr}");
        assert!(!stdout.contains("test AP"), "must not evaluate: {stdout}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flipped_checkpoint_is_a_one_line_error() {
    // A checkpoint `tgl train --ckpt` wrote, with two payload bytes
    // XORed: it must not evaluate to a quietly different AP.
    let path = std::env::temp_dir().join(format!("tgl-flipped-ckpt-{}.tglt", std::process::id()));
    let (code, _, stderr) = tgl_train(&["--ckpt", path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stdout, stderr) = tgl_eval_ckpt(&path);
    assert!(code == Some(0) && stdout.contains("test AP"), "intact file: {stdout}\n{stderr}");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    bytes[mid + 1] ^= 0x01;
    std::fs::write(&path, bytes).expect("write fixture");
    let (code, stdout, stderr) = tgl_eval_ckpt(&path);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error, no backtrace: {stderr}");
    assert!(stderr.contains("--ckpt") && stderr.contains("checksum"), "{stderr}");
    assert!(!stdout.contains("test AP"), "must not evaluate: {stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unwritable_output_paths_fail_before_training_naming_the_flag() {
    // Every artifact the run path writes: a bad path must cost nothing,
    // not a whole run followed by a panic in `.expect("write ...")`.
    for flag in ["--ckpt", "--metrics-out", "--trace-out"] {
        let (code, stdout, stderr) = tgl_train(&[flag, "/nonexistent-tgl-dir/sub/out.bin"]);
        assert_eq!(code, Some(2), "{flag}: stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: one-line error, no backtrace: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains("/nonexistent-tgl-dir/sub/out.bin"), "{flag}: {stderr}");
        assert!(!stdout.contains("epoch"), "{flag}: must not train: {stdout}");
    }
}

#[test]
fn bad_observability_values_are_usage_errors() {
    // `--health off` trained on through NaN losses and printed an AP
    // computed over NaN scores.
    for (flag, value, accepts) in [
        ("--health", "maybe", "warn/fail"),
        ("--health", "off", "warn/fail"),
        ("--pipeline", "deep", "a queue depth"),
    ] {
        let (code, stdout, stderr) = tgl_train(&[flag, value]);
        assert_eq!(code, Some(2), "{flag}: stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: one-line error: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains(value) && stderr.contains(accepts), "{flag}: {stderr}");
        assert!(!stdout.contains("epoch"), "{flag}: must not train: {stdout}");
    }
}

#[test]
fn an_unusable_trend_budget_is_a_usage_error() {
    // The budget is a fixed 25%: `--budget` is no flag of `jsoncheck`
    // any more, so it is unread whatever its value.
    let dir = std::env::temp_dir().join(format!("tgl-bad-budget-{}", std::process::id()));
    let (parent, change) = (dir.join("parent"), dir.join("change"));
    for (side, wall) in [(&parent, 1.0), (&change, 10.0)] {
        std::fs::create_dir_all(side).expect("temp dir");
        let run = format!(r#"{{"rows": [{{"name": "x", "threads": 1, "secs": {wall}}}]}}"#);
        std::fs::write(side.join("1.json"), run).expect("write fixture");
    }
    let trend = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_tgl"))
            .args(["jsoncheck", "--trend", "--old"])
            .arg(&parent)
            .arg(&change)
            .args(extra)
            .output()
            .expect("run tgl")
    };
    let out = trend(&["--budget", "1000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--budget: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "--budget: one-line error: {stderr}");
    assert!(stderr.contains("--budget"), "--budget: error must name the flag: {stderr}");
    assert_eq!(trend(&[]).status.code(), Some(1), "a +900% regression must fail the 25% budget");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_nobody_reads_are_usage_errors() {
    // Eight retired flags and a misspelt one: none may start a run.
    for args in [
        &["--slo", "x"][..],
        &["--serve-metrics", "127.0.0.1:0"],
        &["--epoch", "3"],
        &["--insight"],
        &["--kernel", "fast"],
        &["--csv", "metrics.csv"],
        &["--prof"],
        &["--flight", "on"],
        &["--flight-out", "x.json"],
    ] {
        let flag = args[0];
        let (code, stdout, stderr) = tgl_train(args);
        assert_eq!(code, Some(2), "{flag}: stdout: {stdout}\nstderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: one-line error: {stderr}");
        assert!(stderr.contains(flag), "{flag}: error must name the flag: {stderr}");
        assert!(stdout.is_empty(), "{flag}: must not start a run: {stdout}");
    }
}

#[test]
fn documented_flags_a_branch_skips_are_still_read() {
    // `--opt-all` decides the framework before `--framework` is looked
    // at: a contradiction names both, agreement is accepted.
    let (code, stdout, stderr) = tgl_train(&["--opt-all", "--framework", "tglite"]);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(stderr.contains("--opt-all") && stderr.contains("--framework tglite"), "{stderr}");
    assert!(stdout.is_empty(), "must not start a run: {stdout}");
    let (code, _, stderr) = tgl_train(&["--opt-all", "--framework", "tglite-opt"]);
    assert_eq!(code, Some(0), "{stderr}");
    // `tgl eval` runs no training epoch, but `--epochs` is a common
    // option, not an unrecognized one.
    let out = Command::new(env!("CARGO_BIN_EXE_tgl"))
        .args(["eval", "--model", "tgat", "--dataset", "wiki", "--scale", "16", "--epochs", "3"])
        .output()
        .expect("run tgl");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("test AP"));
}
