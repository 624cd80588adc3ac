//! The golden table's own checks: every file under `tests/goldens/` has a
//! row in [`golden_table::GOLDENS`], and the cluster-engine rows (whose
//! goldens no older test file owns) reproduce byte for byte. The other
//! rows are checked where their grids' tests live; the table's module
//! docs list which test checks which row.

mod golden_table;

#[test]
fn every_golden_has_a_row() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_table::dir())
        .expect("tests/goldens is checked in")
        .map(|e| e.expect("readable entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut tabled: Vec<String> =
        golden_table::GOLDENS.iter().map(|(name, _)| name.to_string()).collect();
    tabled.sort();
    assert_eq!(on_disk, tabled, "every file under tests/goldens/ needs its row in GOLDENS");
}

#[test]
fn cluster_smoke_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("cluster_smoke.json");
}

#[test]
fn cluster_fault_smoke_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("cluster_fault_smoke.json");
}
