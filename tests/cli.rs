//! `starshare-cli` argument validation: a bad `--scale` is a clean
//! `error:` line and exit status 1, never a panic.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_starshare-cli"))
        .args(args)
        .output()
        .expect("starshare-cli runs")
}

#[test]
fn out_of_range_scale_is_an_error_not_a_panic() {
    for scale in ["0", "1.5", "NaN", "-0.1", "abc"] {
        let out = cli(&["tables", "--scale", scale]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--scale {scale}: {stderr}");
        assert!(
            stderr.starts_with("error: --scale"),
            "--scale {scale}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--scale {scale}: {stderr}");
    }
}

#[test]
fn in_range_scale_lists_the_catalog() {
    let out = cli(&["tables", "--scale", "0.001"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ABCD"));
}
