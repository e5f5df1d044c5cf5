//! What the host is: the fingerprint every result line carries, read from
//! Linux `/proc`.

use crate::json::{self, object, Json, ToJson};

/// The machine a result was measured on. Results from different
/// fingerprints are never compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub cpus: u64,
    pub model: String,
    pub kernel: String,
}

impl Fingerprint {
    pub fn current() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, m)| m.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Fingerprint {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            model,
            kernel,
        }
    }

    pub fn to_json(&self) -> Json {
        object([
            ("cpus", self.cpus.to_json()),
            ("model", self.model.to_json()),
            ("kernel", self.kernel.to_json()),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        let text = |key: &str| json::get(v, key).and_then(json::as_str).map(str::to_owned);
        Some(Fingerprint {
            cpus: json::get(v, "cpus").and_then(json::as_f64)? as u64,
            model: text("model")?,
            kernel: text("kernel")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fingerprint_round_trips() {
        let fp = Fingerprint::current();
        assert!(fp.cpus >= 1);
        assert_eq!(Fingerprint::from_json(&fp.to_json()), Some(fp));
    }
}
