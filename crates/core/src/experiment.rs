//! Experiment drivers: the paper's trials as callable functions.
//!
//! One *trial* = one volunteer loading the survey-result page once
//! (§V "Client setup"), with or without the adversary on the gateway.
//! These helpers build the calibrated scenario, install an [`Adversary`],
//! run it, and score the outcome against the §II-A criterion:
//! *success on an object ⇔ its degree of multiplexing reached 0 **and**
//! the object was identified from the encrypted trace*.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::{app_data_records, segment_bursts, GroundTruth, WireTrace};
use h2priv_netsim::{Dir, SimDuration, SimRng, SimTime};
use h2priv_testkit::{build_scenario, run_scenario, RunResult, ScenarioConfig};
use h2priv_web::isidewith::{self, Isidewith};
use h2priv_web::{BrowsePlan, ObjectId, Phase, PlanStep, Trigger};

use crate::adversary::{Adversary, AttackConfig, AttackPhase};
use crate::controller::ControllerStats;
use crate::predictor::{identify_bursts, predicted_order, SizeMap};

/// Burst-segmentation gap used by the analyzer: above the RTT (a
/// congestion-window-paced serve pauses ~one RTT between flights, which
/// must not split a burst), below the idle left by the 80 ms request
/// spacing between consecutive serves.
pub const BURST_GAP: SimDuration = SimDuration::from_millis(30);

/// Matching tolerance of the calibrated size map, bytes.
pub const SIZE_TOLERANCE: u64 = 400;

/// Post-run snapshot of the adversary's internal state.
#[derive(Debug, Clone)]
pub struct AdversarySnapshot {
    /// Phase transitions with timestamps.
    pub phase_log: Vec<(SimTime, AttackPhase)>,
    /// GETs the monitor counted.
    pub gets_seen: u64,
    /// End of the §IV-D disruption window, if one ran.
    pub drop_window_end: Option<SimTime>,
    /// When serialization began, if it did.
    pub serialize_start: Option<SimTime>,
    /// When the post-reset gate released the first serialized GET.
    pub gate_released_at: Option<SimTime>,
    /// Shaping counters.
    pub controller: ControllerStats,
}

impl AdversarySnapshot {
    /// Snapshots an adversary's state after its run.
    pub fn new(adversary: &Adversary) -> Self {
        AdversarySnapshot {
            phase_log: adversary.phase_log().to_vec(),
            gets_seen: adversary.gets_seen(),
            drop_window_end: adversary.drop_window_end(),
            serialize_start: adversary.serialize_start(),
            gate_released_at: adversary.gate_released_at(),
            controller: adversary.controller_stats(),
        }
    }

    /// The instant from which the predictor analyzes the capture: the
    /// serialized window begins once the post-reset gate released (the
    /// quiet gap after the serialization transition bounds it from below).
    pub fn analysis_start(&self, attack: &AttackConfig) -> Option<SimTime> {
        self.gate_released_at
            .or(self.serialize_start.map(|t| t + attack.quiet_gap))
            .or(self.drop_window_end)
    }
}

/// One executed trial.
#[derive(Debug)]
pub struct AttackTrial {
    /// The scenario outcome.
    pub result: RunResult,
    /// Adversary state (present when an adversary was installed).
    pub adversary: Option<AdversarySnapshot>,
    /// The site/plan/golden-order used.
    pub iw: Isidewith,
}

/// The modeled user's survey outcome for a trial seed: the golden order of
/// the eight party images, a seed-derived random permutation (the
/// volunteers' answers).
pub fn survey_outcome(seed: u64) -> Vec<usize> {
    SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7)).permutation(8)
}

/// Builds the paper's scenario for a trial seed: the user's
/// [`survey_outcome`], with all timing noise derived from the same seed.
pub fn paper_scenario(seed: u64) -> (Isidewith, ScenarioConfig) {
    let iw = isidewith::build(&survey_outcome(seed));
    let cfg = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    (iw, cfg)
}

/// Runs one trial, optionally under attack, with an optional scenario
/// tweak (used by the parameter-sweep experiments).
pub fn run_paper_trial(
    seed: u64,
    attack: Option<&AttackConfig>,
    tweak: impl FnOnce(&mut ScenarioConfig),
) -> AttackTrial {
    let (iw, mut cfg) = paper_scenario(seed);
    tweak(&mut cfg);
    let adversary = attack.map(|config| Rc::new(RefCell::new(Adversary::new(config.clone()))));
    let scenario = build_scenario(
        &iw.site,
        &iw.plan,
        &cfg,
        adversary
            .clone()
            .map(|a| Box::new(a) as Box<dyn h2priv_netsim::Middlebox<h2priv_tcp::TcpSegment>>),
    );
    let result = run_scenario(scenario);
    AttackTrial {
        result,
        adversary: adversary.map(|a| AdversarySnapshot::new(&a.borrow())),
        iw,
    }
}

/// Calibrates the pre-compiled size map the §V predictor uses: each object
/// of interest is fetched alone over a quiet network and its burst size
/// recorded — exactly how the paper's adversary built its
/// "image size to political party mapping".
pub fn calibrate_size_map(objects: &[ObjectId]) -> SizeMap {
    calibrate_size_map_with(objects, |_| {})
}

/// [`calibrate_size_map`] with a scenario tweak applied to every
/// calibration fetch. Per Kerckhoffs' principle the defense evaluation
/// assumes the adversary knows the deployed countermeasure, so it
/// calibrates its size map against the *defended* server — pass a tweak
/// setting the same [`ScenarioConfig::defense`] the victim runs.
pub fn calibrate_size_map_with(
    objects: &[ObjectId],
    tweak: impl Fn(&mut ScenarioConfig),
) -> SizeMap {
    let golden: Vec<usize> = (0..8).collect();
    let iw = isidewith::build(&golden);
    let mut map = SizeMap::new(SIZE_TOLERANCE);
    for &object in objects {
        let plan = BrowsePlan::new().with_phase(Phase {
            trigger: Trigger::Start,
            delay: SimDuration::ZERO,
            steps: vec![PlanStep {
                object,
                gap: SimDuration::ZERO,
            }],
            reissue: true,
        });
        let mut cfg = ScenarioConfig {
            seed: 0xCA11_B8A7E ^ object.0 as u64,
            ..ScenarioConfig::default()
        };
        cfg.browser.gap_noise_frac = 0.0;
        cfg.server_link.jitter = h2priv_netsim::DurationDist::None;
        tweak(&mut cfg);
        let result = h2priv_testkit::run_trial(&iw.site, &plan, &cfg, None);
        let data = app_data_records(result.trace.records(), Dir::RightToLeft);
        let bursts = segment_bursts(&data, BURST_GAP);
        if let Some(biggest) = bursts.iter().max_by_key(|b| b.plaintext_bytes) {
            map.insert(object, biggest.plaintext_bytes);
        }
    }
    map
}

/// Per-object scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectReport {
    /// The object of interest.
    pub object: ObjectId,
    /// Smallest degree of multiplexing across its complete transmissions
    /// (None: never fully transmitted).
    pub degree: Option<f64>,
    /// The size map matched some burst to this object.
    pub identified: bool,
    /// The paper's success criterion: degree 0 and identified.
    pub success: bool,
}

/// Scored trial.
#[derive(Debug, Clone)]
pub struct TrialAnalysis {
    /// Reports for the requested objects of interest, same order.
    pub objects: Vec<ObjectReport>,
    /// Predicted transmission order of the emblem images (party indices in
    /// the order the adversary believes they were displayed).
    pub predicted_parties: Vec<usize>,
    /// Per-rank correctness of the predicted party sequence.
    pub rank_correct: Vec<bool>,
    /// The whole sequence (all 8 ranks) was recovered.
    pub full_sequence_correct: bool,
    /// The trial's connection broke.
    pub broken: bool,
}

/// Scores one trial against the golden reference.
///
/// `analysis_start` restricts identification to bursts at or after the
/// given instant (the adversary analyzes the post-reset window in the full
/// attack); `None` analyzes the whole capture.
pub fn analyze_trial(
    trial: &AttackTrial,
    map: &SizeMap,
    objects_of_interest: &[ObjectId],
    analysis_start: Option<SimTime>,
) -> TrialAnalysis {
    analyze_capture(
        &trial.result.trace,
        &trial.result.truth,
        &trial.iw,
        trial.result.broken,
        map,
        objects_of_interest,
        analysis_start,
    )
}

/// Scores one captured connection against the golden reference, without
/// requiring a full [`AttackTrial`] — the fleet scenario's victim capture
/// (a wire trace plus seal-time ground truth pulled out of a population
/// run) routes through here, as does [`analyze_trial`].
#[allow(clippy::too_many_arguments)]
pub fn analyze_capture(
    trace: &WireTrace,
    truth: &GroundTruth,
    iw: &Isidewith,
    broken: bool,
    map: &SizeMap,
    objects_of_interest: &[ObjectId],
    analysis_start: Option<SimTime>,
) -> TrialAnalysis {
    let mut data = app_data_records(trace.records(), Dir::RightToLeft);
    if let Some(start) = analysis_start {
        data.retain(|r| r.time >= start);
    }
    let bursts = segment_bursts(&data, BURST_GAP);
    let idents = identify_bursts(map, &bursts);

    let objects = objects_of_interest
        .iter()
        .map(|&object| {
            let degree = truth.min_degree_for(object);
            let identified = idents.iter().any(|i| i.object == object);
            let success = identified && degree == Some(0.0);
            ObjectReport {
                object,
                degree,
                identified,
                success,
            }
        })
        .collect();

    // Image order prediction.
    let image_objects: Vec<ObjectId> = iw.images.to_vec();
    let order = predicted_order(&idents, &image_objects);
    let predicted_parties: Vec<usize> = order
        .iter()
        .filter_map(|o| iw.images.iter().position(|i| i == o))
        .collect();
    let rank_correct: Vec<bool> = (0..8)
        .map(|rank| {
            predicted_parties.get(rank).copied() == iw.golden_order.get(rank).copied()
                && rank < predicted_parties.len()
        })
        .collect();
    let full_sequence_correct = rank_correct.iter().all(|&c| c);

    TrialAnalysis {
        objects,
        predicted_parties,
        rank_correct,
        full_sequence_correct,
        broken,
    }
}

/// The nine objects of interest of §V: the result HTML and the 8 emblem
/// images (party order).
pub fn objects_of_interest(iw: &Isidewith) -> Vec<ObjectId> {
    let mut v = vec![iw.html];
    v.extend(iw.images);
    v
}
