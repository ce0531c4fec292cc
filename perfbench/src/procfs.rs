//! Process facts read from Linux `/proc`: peak resident memory, and
//! whether a process has ended. Also the one signal the benchmark sends,
//! to reap a fleet that did not drain.

use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) in KiB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of `pid` (`"self"` for this process) in KiB.
pub fn vm_hwm_kb(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kb(&text).ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The state letter from the text of a `/proc/<pid>/stat` file. The
/// command name in parentheses may itself contain spaces or parentheses,
/// so the state is the first field after the *last* `)`.
pub fn parse_stat_state(stat: &str) -> Option<char> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().next()?.chars().next()
}

/// Whether `pid` still runs: it exists and is not a zombie waiting for
/// its parent to reap it.
pub fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_state(&s))
        .is_some_and(|state| state != 'Z' && state != 'X')
}

/// Polls until every pid has ended or `timeout` passes; returns the pids
/// still running.
pub fn wait_gone(pids: &[u32], timeout: Duration) -> Vec<u32> {
    let deadline = Instant::now() + timeout;
    loop {
        let left: Vec<u32> = pids.iter().copied().filter(|p| alive(*p)).collect();
        if left.is_empty() || Instant::now() >= deadline {
            return left;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

const SIGKILL: i32 = 9;

/// Sends SIGKILL to every process in process group `pgid`.
pub fn kill_group(pgid: u32) {
    let Ok(pgid) = i32::try_from(pgid) else {
        return;
    };
    if pgid > 1 {
        // SAFETY: kill(2) takes two integers and touches no memory of this
        // process. A negative pid addresses exactly the group `pgid`, which
        // the caller created for the processes it owns; `pgid > 1` keeps
        // the special values 0 (our own group) and -1 (everything) out.
        unsafe {
            kill(-pgid, SIGKILL);
        }
    }
}

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = lowest_cpu(&mask).ok_or("empty CPU affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn lowest_cpu(mask: &CpuSet) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tshard\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn own_process_has_a_peak_and_is_alive() {
        assert!(vm_hwm_kb("self").unwrap() > 0);
        assert!(alive(std::process::id()));
    }

    #[test]
    fn lowest_cpu_scans_every_word() {
        let mut mask: CpuSet = [0; 16];
        assert_eq!(lowest_cpu(&mask), None);
        mask[2] = 0b1010_0000;
        assert_eq!(lowest_cpu(&mask), Some(2 * 64 + 5));
        mask[0] = 1;
        assert_eq!(lowest_cpu(&mask), Some(0));
    }

    #[test]
    fn stat_state_survives_odd_command_names() {
        assert_eq!(parse_stat_state("42 (wasmperf-fleet) S 1 42"), Some('S'));
        assert_eq!(parse_stat_state("42 (a) b) Z 1 42"), Some('Z'));
        assert_eq!(parse_stat_state("garbage"), None);
    }
}
