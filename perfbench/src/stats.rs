//! Order statistics, byte digests, JSON output and host facts.

use std::path::Path;

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); NaN when empty.
/// Infinite samples (failed requests) sort last.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Distance between the first and third quartile, as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

/// 128-bit digest of a byte string (two independent multiply-xor lanes
/// over 8-byte words, plus the length), used to compare encoded shards
/// without keeping copies of them in memory.
pub fn digest(bytes: &[u8]) -> (u64, u64, usize) {
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325u64, 0x9e37_79b9_7f4a_7c15u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        a = (a ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        b = (b ^ x.rotate_left(29)).wrapping_mul(0xff51_afd7_ed55_8ccd) ^ (b >> 31);
    }
    for &x in words.remainder() {
        a = (a ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        b = (b ^ x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    (a, b, bytes.len())
}

/// A metric as printed: name, value, unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON number; non-finite values (a failed request's latency) become a
/// large finite sentinel so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".to_string()
    }
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Total bytes of the regular files under `dir` and how many there are.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                let (b, f) = dir_usage(&e.path());
                bytes += b;
                files += f;
            } else {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_sort_failures_last() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(quantile(&[1.0, f64::INFINITY], 1.0).is_infinite());
        assert!((iqr_frac(&xs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_single_byte_changes() {
        let a = vec![7u8; 1001];
        let mut b = a.clone();
        b[500] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[m("x", 1.5, "ms"), m("y", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}, \"y\": {\"value\": 1e12, \"unit\": \"s\"}}}"
        );
    }
}
