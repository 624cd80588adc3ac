//! Shared by the memory-ratchet tests (`lowering_footprint`,
//! `mpi_lowering_footprint`, `sim_footprint`,
//! `flow_table_footprint`).

/// `VmHWM` of this process in KiB, `None` where procfs does not provide it.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}
