//! Host-domain readings from `/proc`, read defensively: where `/proc` is
//! absent or malformed the reading is `None`, never a panic.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI; std offers no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses;
    // fields are counted from the last ')'. utime and stime are fields
    // 14 and 15, i.e. 11 and 12 after the state field.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu(stat), Some(2.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parses_kb_and_tolerates_absence() {
        assert_eq!(parse_vm_hwm("Name:\tx\nVmHWM:\t  2048 kB\n"), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
    }
}
