//! Simulated kernels reproducing the determinism characteristics of the
//! 17 applications the InstantCheck paper evaluates (Table 1), plus the
//! three seeded-bug variants of Figure 7 / Table 2.
//!
//! Each kernel is a small parallel program written against [`tsim`]'s
//! instrumented API that exhibits the *same determinism class*, the same
//! *kind of nondeterminism source*, and (at paper scale) the same number
//! of dynamic checking points as the corresponding real application:
//!
//! | class | apps |
//! |---|---|
//! | bit-by-bit deterministic | blackscholes, fft, lu, radix, streamcluster (fixed), swaptions, volrend |
//! | deterministic modulo FP precision | fluidanimate, ocean, waterNS, waterSP |
//! | deterministic ignoring small structures | cholesky, pbzip2, sphinx3 |
//! | nondeterministic | barnes, canneal, radiosity |
//!
//! `streamcluster` additionally ships in its original *buggy* form (the
//! order-violation race the paper found), which is nondeterministic at a
//! window of internal barriers but masked by the end of the run.
//!
//! Every kernel has two scales: [`all`] returns paper-scale programs
//! (dynamic checking-point counts matching Table 1), [`all_scaled`]
//! returns miniatures with identical structure for fast tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod stress;
pub mod util;

use std::sync::Arc;

use instantcheck::{DetClass, IgnoreSpec, Subject};
use tsim::Program;

/// A registered application kernel: how to build it, plus the metadata
/// and expectations Table 1 records.
#[derive(Clone)]
pub struct AppSpec {
    /// Application name (Table 1 column 2).
    pub name: &'static str,
    /// Source suite (column 3): `parsec`, `splash2`, `openSrc`,
    /// `alpBench`.
    pub suite: &'static str,
    /// Whether the kernel performs FP operations (column 4).
    pub uses_fp: bool,
    /// The determinism class the kernel is engineered to exhibit.
    pub expected_class: DetClass,
    /// Expected total dynamic checking points (barriers + manual points
    /// + end) — columns 10+11.
    pub expected_points: usize,
    /// The programmer-supplied ignore spec for its small
    /// nondeterministic structures (empty unless class is
    /// `IgnoringStructs`).
    pub ignore: IgnoreSpec,
    /// Builds one fresh copy of the program.
    pub build: Arc<dyn Fn() -> Program + Send + Sync>,
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("uses_fp", &self.uses_fp)
            .field("expected_class", &self.expected_class)
            .field("expected_points", &self.expected_points)
            .finish_non_exhaustive()
    }
}

impl AppSpec {
    /// Converts the spec into a checker [`Subject`].
    pub fn subject(&self) -> Subject {
        let build = Arc::clone(&self.build);
        let mut s = Subject::new(self.name, move || build());
        if self.uses_fp {
            s = s.with_fp();
        }
        s.with_ignore(self.ignore.clone())
    }

    /// Builds one fresh program.
    pub fn build(&self) -> Program {
        (self.build)()
    }
}

/// The paper's eight-thread configuration.
pub const THREADS: usize = 8;

/// The 17 application names in Table 1 order.
const NAMES: [&str; 17] = [
    "blackscholes",
    "fft",
    "lu",
    "radix",
    "streamcluster",
    "swaptions",
    "volrend",
    "fluidanimate",
    "ocean",
    "waterNS",
    "waterSP",
    "cholesky",
    "pbzip2",
    "sphinx3",
    "barnes",
    "canneal",
    "radiosity",
];

fn registered(scaled: bool) -> Vec<AppSpec> {
    NAMES
        .iter()
        .map(|name| by_name(name, scaled).expect("every listed name is registered"))
        .collect()
}

/// All 17 applications at paper scale (Table 1 order). `streamcluster`
/// appears in its buggy (original v2.1) form, as in the paper's
/// experiments.
pub fn all() -> Vec<AppSpec> {
    registered(false)
}

/// All 17 applications at miniature scale (same structure, far fewer
/// iterations) for fast tests.
pub fn all_scaled() -> Vec<AppSpec> {
    registered(true)
}

/// Looks up an application by name (either scale). Builds only the
/// matching spec.
pub fn by_name(name: &str, scaled: bool) -> Option<AppSpec> {
    use apps::*;
    type Spec = fn() -> AppSpec;
    let (full, mini): (Spec, Spec) = match name {
        "blackscholes" => (blackscholes::spec, blackscholes::spec_scaled),
        "fft" => (fft::spec, fft::spec_scaled),
        "lu" => (lu::spec, lu::spec_scaled),
        "radix" => (radix::spec, radix::spec_scaled),
        "streamcluster" => (streamcluster::spec_buggy, streamcluster::spec_buggy_scaled),
        "swaptions" => (swaptions::spec, swaptions::spec_scaled),
        "volrend" => (volrend::spec, volrend::spec_scaled),
        "fluidanimate" => (fluidanimate::spec, fluidanimate::spec_scaled),
        "ocean" => (ocean::spec, ocean::spec_scaled),
        "waterNS" => (water::spec_ns, water::spec_ns_scaled),
        "waterSP" => (water::spec_sp, water::spec_sp_scaled),
        "cholesky" => (cholesky::spec, cholesky::spec_scaled),
        "pbzip2" => (pbzip2::spec, pbzip2::spec_scaled),
        "sphinx3" => (sphinx3::spec, sphinx3::spec_scaled),
        "barnes" => (barnes::spec, barnes::spec_scaled),
        "canneal" => (canneal::spec, canneal::spec_scaled),
        "radiosity" => (radiosity::spec, radiosity::spec_scaled),
        _ => return None,
    };
    Some(if scaled { mini() } else { full() })
}

/// The three seeded-bug variants of Figure 7 (Table 2), paper scale:
/// a semantic bug in waterNS, an atomicity violation in waterSP, and an
/// order violation in radix — each injected only in thread 3, the radix
/// one with a single dynamic occurrence.
pub fn seeded_bugs() -> Vec<AppSpec> {
    vec![
        apps::water::spec_ns_semantic_bug(),
        apps::water::spec_sp_atomicity_bug(),
        apps::radix::spec_order_violation(),
    ]
}

/// Miniature versions of the seeded-bug variants.
pub fn seeded_bugs_scaled() -> Vec<AppSpec> {
    vec![
        apps::water::spec_ns_semantic_bug_scaled(),
        apps::water::spec_sp_atomicity_bug_scaled(),
        apps::radix::spec_order_violation_scaled(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_distinct() {
        let apps = all();
        assert_eq!(apps.len(), 17);
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17, "names must be unique");
        assert_eq!(all_scaled().len(), 17);
        assert_eq!(seeded_bugs().len(), 3);
        assert_eq!(seeded_bugs_scaled().len(), 3);
    }

    #[test]
    fn class_group_sizes_match_table1() {
        let apps = all();
        let count = |c: DetClass| apps.iter().filter(|a| a.expected_class == c).count();
        // streamcluster (buggy) counts as Nondeterministic-at-internal-
        // barriers but the paper groups it with bit-by-bit; we register
        // its expectation as BitExact-with-bug via expected_class
        // BitExact on the fixed variant. The buggy variant carries its
        // own class below.
        assert_eq!(count(DetClass::BitExact), 7);
        assert_eq!(count(DetClass::FpRounded), 4);
        assert_eq!(count(DetClass::IgnoringStructs), 3);
        assert_eq!(count(DetClass::Nondeterministic), 3);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("fft", true).is_some());
        assert!(by_name("fft", false).is_some());
        assert!(by_name("doom", true).is_none());
        for scaled in [false, true] {
            let pool = if scaled { all_scaled() } else { all() };
            for (spec, name) in pool.iter().zip(NAMES) {
                assert_eq!(spec.name, name, "the registry keys each spec by its name");
            }
        }
    }

    #[test]
    fn subjects_carry_metadata() {
        let spec = by_name("cholesky", true).unwrap();
        let subj = spec.subject();
        assert_eq!(subj.name, "cholesky");
        assert!(subj.uses_fp);
        assert!(!subj.ignore.is_empty());
    }
}
