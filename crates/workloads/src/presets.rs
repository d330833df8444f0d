//! Per-log presets calibrated to the four Parallel Workload Archive systems
//! used in Section 7.2.
//!
//! Processor and user counts are the published figures (70 / 2560 / 8192 /
//! 3072 processors; 56 / 225 / 176 / 154 users). Load regimes and duration
//! shapes are chosen to reproduce each log's qualitative behaviour in the
//! paper's tables: PIK-IPLEX is lightly loaded (near-zero unfairness for
//! every algorithm), RICC is heavily loaded with long jobs (the largest
//! unfairness values), LPC-EGEE and SHARCNET-Whale sit in between.
//!
//! Presets can be scaled down (machines and users together, preserving the
//! load regime) so the exponential REF reference stays cheap on small
//! machines; the paper's own experiments run at scale 1.

use crate::synth::SynthConfig;

/// The four archive systems of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PresetName {
    /// LPC-EGEE (cleaned): 70 processors, 56 users — small EGEE cluster.
    LpcEgee,
    /// PIK-IPLEX: 2560 processors, 225 users — lightly loaded iDataPlex.
    PikIplex,
    /// RICC: 8192 processors, 176 users — heavily loaded RIKEN cluster.
    Ricc,
    /// SHARCNET-Whale: 3072 processors, 154 users.
    SharcnetWhale,
}

impl PresetName {
    /// All four presets, in the paper's table order.
    pub const ALL: [PresetName; 4] = [
        PresetName::LpcEgee,
        PresetName::PikIplex,
        PresetName::SharcnetWhale,
        PresetName::Ricc,
    ];

    /// The display name used in tables.
    pub fn label(self) -> &'static str {
        match self {
            PresetName::LpcEgee => "LPC-EGEE",
            PresetName::PikIplex => "PIK-IPLEX",
            PresetName::Ricc => "RICC",
            PresetName::SharcnetWhale => "SHARCNET-Whale",
        }
    }

    /// The canonical short key used in workload spec strings
    /// (`synth:preset=<key>`); guaranteed to round-trip through
    /// [`PresetName::parse`].
    pub fn key(self) -> &'static str {
        match self {
            PresetName::LpcEgee => "lpc",
            PresetName::PikIplex => "pik",
            PresetName::Ricc => "ricc",
            PresetName::SharcnetWhale => "sharcnet",
        }
    }

    /// Parses a label (case/punctuation-insensitive). This is the **one**
    /// parsing path for preset names: the CLI `--preset` flag, the bench
    /// `--workload` flag, and the `synth` workload factory's `preset=`
    /// parameter all resolve through it, so aliases and case rules cannot
    /// drift apart.
    pub fn parse(s: &str) -> Option<PresetName> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        match norm.as_str() {
            "lpcegee" | "lpc" => Some(PresetName::LpcEgee),
            "pikiplex" | "pik" => Some(PresetName::PikIplex),
            "ricc" => Some(PresetName::Ricc),
            "sharcnetwhale" | "sharcnet" | "whale" => Some(PresetName::SharcnetWhale),
            _ => None,
        }
    }
}

/// A calibrated workload preset.
#[derive(Clone, Debug, PartialEq)]
pub struct Preset {
    /// Which archive system this models.
    pub name: PresetName,
    /// Full-scale processor count (the archive figure).
    pub full_machines: usize,
    /// Full-scale user count (the archive figure).
    pub full_users: usize,
    /// Generator configuration at the requested scale.
    pub synth: SynthConfig,
}

/// Builds a preset at `scale ∈ (0, 1]`: machines and users shrink together
/// (each at least 5 machines / 5 users), the load regime and duration shape
/// stay fixed, so queueing behaviour is preserved.
///
/// `horizon` is the submit window (the paper uses 5·10⁴ and 5·10⁵).
pub fn preset(name: PresetName, scale: f64, horizon: u64) -> Preset {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let (full_machines, full_users, load, median, sigma, max_dur) = match name {
        // Small cluster, moderate load, grid-style short-to-medium jobs.
        PresetName::LpcEgee => (70, 56, 0.85, 400.0, 1.5, 40_000),
        // Large machine, light load: queues rarely form.
        PresetName::PikIplex => (2_560, 225, 0.25, 600.0, 1.3, 40_000),
        // Heavily loaded, long jobs: the hardest fairness regime.
        PresetName::Ricc => (8_192, 176, 1.1, 1_500.0, 1.6, 60_000),
        // Moderate-to-high load, medium jobs.
        PresetName::SharcnetWhale => (3_072, 154, 0.8, 800.0, 1.5, 50_000),
    };
    let machines = ((full_machines as f64 * scale).round() as usize).max(5);
    let users = ((full_users as f64 * scale).round() as usize).max(5);
    Preset {
        name,
        full_machines,
        full_users,
        synth: SynthConfig {
            n_users: users,
            horizon,
            n_machines: machines,
            load,
            duration_median: median,
            duration_sigma: sigma,
            max_duration: max_dur.min(horizon.max(2) - 1),
            ..SynthConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate;

    #[test]
    fn full_scale_matches_archive_figures() {
        let p = preset(PresetName::LpcEgee, 1.0, 50_000);
        assert_eq!(p.synth.n_machines, 70);
        assert_eq!(p.synth.n_users, 56);
        let p = preset(PresetName::Ricc, 1.0, 50_000);
        assert_eq!(p.synth.n_machines, 8_192);
        assert_eq!(p.synth.n_users, 176);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let p = preset(PresetName::PikIplex, 0.01, 50_000);
        assert_eq!(p.synth.n_machines, 26);
        assert!(p.synth.n_users >= 5);
        // Load regime preserved.
        assert_eq!(p.synth.load, 0.25);
    }

    #[test]
    fn minimum_floor_applies() {
        let p = preset(PresetName::LpcEgee, 0.001, 50_000);
        assert!(p.synth.n_machines >= 5);
        assert!(p.synth.n_users >= 5);
    }

    #[test]
    fn labels_parse_roundtrip() {
        for name in PresetName::ALL {
            assert_eq!(PresetName::parse(name.label()), Some(name));
        }
        assert_eq!(PresetName::parse("nonsense"), None);
    }

    #[test]
    fn keys_and_aliases_all_resolve() {
        // The canonical spec key round-trips...
        for name in PresetName::ALL {
            assert_eq!(PresetName::parse(name.key()), Some(name));
        }
        // ...and every documented alias/case/punctuation variant lands on
        // the same preset as the canonical key (the single parsing path
        // shared by `--preset`, `--workload`, and `synth:preset=`).
        for (alias, want) in [
            ("LPC", PresetName::LpcEgee),
            ("lpc-egee", PresetName::LpcEgee),
            ("LpcEgee", PresetName::LpcEgee),
            ("PIK-IPLEX", PresetName::PikIplex),
            ("pik_iplex", PresetName::PikIplex),
            ("RICC", PresetName::Ricc),
            ("whale", PresetName::SharcnetWhale),
            ("Sharcnet", PresetName::SharcnetWhale),
            ("SHARCNET-Whale", PresetName::SharcnetWhale),
        ] {
            assert_eq!(PresetName::parse(alias), Some(want), "alias {alias:?}");
        }
    }

    #[test]
    fn presets_generate_nonempty_workloads() {
        for name in PresetName::ALL {
            let p = preset(name, 0.05, 10_000);
            let jobs = generate(&p.synth, 1);
            assert!(!jobs.is_empty(), "{name:?} generated no jobs");
        }
    }

    #[test]
    #[should_panic]
    fn scale_out_of_range_rejected() {
        let _ = preset(PresetName::Ricc, 1.5, 1000);
    }
}
