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
fn zero_scale_is_a_usage_error() {
    // `--scale` appears twice: the later, offending value wins.
    let (code, stdout, stderr) = tgl_train(&["--scale", "0"]);
    assert_eq!(code, Some(2), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line error: {stderr}");
    assert!(stderr.contains("--scale"), "error must name the flag: {stderr}");
    assert!(!stdout.contains("loss"), "must not train: {stdout}");
}
