//! `section`'s front door, driven as a process (the `tcq` twin is
//! `tests/failure_modes.rs::a_flag_is_never_taken_as_another_flags_value`;
//! `CARGO_BIN_EXE_section` only exists for this package's own tests).

#[test]
fn a_flag_is_never_taken_as_a_directory() {
    // `--trace --quick` used to trace a full-size run into `./--quick/`.
    let dir = std::env::temp_dir().join(format!("section-swallowed-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_section"))
        .args(["table2", "--trace", "--quick"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let left = std::fs::read_dir(&dir).unwrap().count();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --trace takes a directory\nusage: section <name>|all [--quick"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    assert_eq!(left, 0, "section created a file or directory");
}
