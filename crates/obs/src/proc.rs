//! Process-level resource readings (Linux `/proc` based).
//!
//! The scale benchmarks report peak memory next to throughput: a 1M-node
//! training run that fits in RAM only because the streaming generator and
//! the mini-batch path avoid `N×N` materialization needs a number proving
//! it, and page faults next to both: memory the allocator returns to the
//! kernel and takes back costs a fault per page every time.
//! `/proc/self/status` and `/proc/self/stat` are plain text on Linux;
//! elsewhere the readers return `None` and callers report the field as
//! unavailable rather than failing.

/// High-water-mark resident set size (`VmHWM`) of this process, in bytes.
/// `None` when `/proc/self/status` is unavailable (non-Linux) or the field
/// is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// Current resident set size (`VmRSS`) of this process, in bytes. Same
/// availability caveats as [`peak_rss_bytes`].
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kb("VmRSS:").map(|kb| kb * 1024)
}

/// Minor page faults this process has taken so far, over all its threads
/// (field 10, `minflt`, of `/proc/self/stat`). A delta around a piece of
/// work counts the pages it touched for the first time since they were
/// mapped, such as memory the allocator handed back to the kernel and then
/// took again. `None` off Linux.
pub fn minor_faults() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    parse_minor_faults(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Field 10 of a `/proc/<pid>/stat` line. The second field, `comm`, is the
/// executable name in parentheses and may itself hold spaces and `)`, so the
/// fields are counted from after the last `)`: there the state is field 3,
/// and `minflt` is field 10.
fn parse_minor_faults(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Reads a `<key>  <n> kB` line from `/proc/self/status`.
fn read_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, key)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l[key.len()..].split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tbench\nVmPeak:\t  123 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn minor_faults_are_counted_after_the_last_paren() {
        // `comm` may hold spaces and `)`; only the last `)` closes it.
        let stat = "4242 (a b) (c)) R 1 4242 4242 0 -1 4194560 5123 0 7 0 \
                    12 3 0 0 20 0 1 0 99 1000 200";
        assert_eq!(parse_minor_faults(stat), Some(5123));
        assert_eq!(parse_minor_faults("4242 (bench) R 1 2 3"), None);
        assert_eq!(parse_minor_faults("no comm field"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_minor_faults_count_fresh_pages() {
        let before = minor_faults().expect("minflt available on Linux");
        let mut v = vec![0u8; 64 << 20];
        // Touch one byte a page so each page faults in.
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&v);
        let after = minor_faults().unwrap();
        // At least one fault per 2 MiB, even if transparent huge pages
        // back the block.
        assert!(
            after >= before + 32,
            "64 MiB touched but only {} faults counted",
            after - before
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_readings_are_positive_and_ordered() {
        assert!(peak_rss_bytes().expect("VmHWM available on Linux") > 0);
        assert!(current_rss_bytes().expect("VmRSS available on Linux") > 0);
        // Compare within one status snapshot — two separate reads race
        // against the allocator growing RSS in between.
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let peak = parse_status_kb(&status, "VmHWM:").unwrap();
        let cur = parse_status_kb(&status, "VmRSS:").unwrap();
        assert!(peak >= cur, "peak {peak} kB < current {cur} kB");
    }
}
