//! Heartbeat classification (the paper's §III example of a *qualitative*
//! output, after Braojos et al. [9]).

use crate::app::{AppKind, BiomedicalApp};
use crate::delineate::WaveletDelineation;
use crate::WordStorage;

/// Beat classes emitted by the classifier.
///
/// The discriminants are the values written to the output buffer — the
/// classifier's output is a sequence of `(class, r_position)` pairs, which
/// is what makes this the paper's example of an application whose result
/// is "statistical or qualitative" yet still measurable with Formula 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(i16)]
pub enum BeatClass {
    /// Sinus beat with normal conduction.
    Normal = 1,
    /// Ventricular ectopic (wide QRS, no organized P wave, premature).
    Ventricular = 2,
    /// Supraventricular / unclassifiable morphology.
    Other = 3,
}

impl BeatClass {
    fn from_code(code: i16) -> Option<BeatClass> {
        match code {
            1 => Some(BeatClass::Normal),
            2 => Some(BeatClass::Ventricular),
            3 => Some(BeatClass::Other),
            _ => None,
        }
    }
}

/// Rule-based heartbeat classifier on top of [`WaveletDelineation`].
///
/// Mirrors the embedded classifier of the paper's reference [9]: delineate
/// each beat, extract morphology features — QRS width, RR interval ratio,
/// P-wave presence — and sort the beat into [`BeatClass`] buckets:
///
/// * QRS wider than 120 ms → **ventricular**,
/// * premature beat (RR < 80 % of the running mean) without a P wave →
///   **ventricular**,
/// * missing P wave with normal QRS → **other** (supraventricular),
/// * everything else → **normal**.
///
/// The paper's point about such applications (§III) is that their
/// classification margins are coarse — doctors fine-tune them visually —
/// so the *data path* can tolerate LSB inexactness; this app makes that
/// argument measurable: LSB faults rarely flip a class, MSB faults
/// hallucinate or drop beats.
///
/// ```
/// use dream_dsp::{BiomedicalApp, HeartbeatClassifier, VecStorage};
/// use dream_ecg::Database;
/// let record = Database::record(106, 2048); // contains ectopic beats
/// let app = HeartbeatClassifier::new(2048, record.fs);
/// let mut mem = VecStorage::new(app.memory_words());
/// let out = app.run(&record.samples, &mut mem);
/// let beats = out.chunks(2).filter(|c| c[1] != 0).count();
/// assert!(beats >= 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeartbeatClassifier {
    delineator: WaveletDelineation,
    fs: f64,
}

impl HeartbeatClassifier {
    /// Creates a classifier for `n`-sample windows at `fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WaveletDelineation::new`].
    pub fn new(n: usize, fs: f64) -> Self {
        HeartbeatClassifier {
            delineator: WaveletDelineation::new(n, fs),
            fs,
        }
    }

    /// Decodes an output buffer into `(class, r_position)` pairs.
    pub fn decode_output(out: &[i16]) -> Vec<(BeatClass, usize)> {
        out.chunks(2)
            .filter(|c| c.len() == 2 && c[1] != 0)
            .filter_map(|c| BeatClass::from_code(c[0]).map(|k| (k, c[1] as usize)))
            .collect()
    }

    /// Classifies delineated fiducials (`[P,Q,R,S,T]` per beat) into
    /// `(class, r)` pairs, reading waveform amplitudes through `amp` (the
    /// delineator's smoothed signal). Shared verbatim between the
    /// fixed-point path and the float reference so only data corruption
    /// can diverge them.
    fn classify(
        &self,
        fiducials: &[i16],
        mut amp: impl FnMut(usize) -> f64,
        max_beats: usize,
    ) -> Vec<i16> {
        let ms = |t: f64| (t * self.fs) as i32;
        let samples = |t: f64| ((t * self.fs) as usize).max(1);
        let n = self.delineator.input_len();
        let mut out = vec![0i16; 2 * max_beats];
        let beats: Vec<&[i16]> = fiducials
            .chunks(5)
            .filter(|c| c.len() == 5 && c[2] != 0)
            .collect();
        let mut mean_rr: f64 = 0.0;
        let mut rr_count = 0u32;
        for (i, beat) in beats.iter().enumerate() {
            let (p, q, r, s) = (beat[0], beat[1], beat[2], beat[3]);
            let qrs_width = i32::from(s) - i32::from(q);
            // A P wave is "present" when the putative P sample rises with
            // real prominence above its local neighbourhood, scaled by the
            // beat's own QRS height (gain-independent).
            let has_p = {
                let pi = (p as usize).min(n - 1);
                let left = pi.saturating_sub(samples(0.06));
                let right = (pi + samples(0.06)).min(n - 1);
                let prominence = amp(pi) - 0.5 * (amp(left) + amp(right));
                let qrs_height =
                    (amp((r as usize).min(n - 1)) - amp((q as usize).min(n - 1))).abs();
                prominence > 0.04 * qrs_height && qrs_height > 0.0
            };
            let rr = if i > 0 {
                f64::from(r) - f64::from(beats[i - 1][2])
            } else {
                f64::NAN
            };
            let premature = rr_count > 0 && rr < 0.8 * mean_rr;
            let class = if qrs_width > ms(0.12) || (premature && !has_p) {
                BeatClass::Ventricular
            } else if !has_p {
                BeatClass::Other
            } else {
                BeatClass::Normal
            };
            if rr.is_finite() {
                // Running mean over sinus history only, so one ectopic
                // does not drag the prematurity baseline.
                if class == BeatClass::Normal || rr_count == 0 {
                    mean_rr = (mean_rr * f64::from(rr_count) + rr) / f64::from(rr_count + 1);
                    rr_count += 1;
                }
            }
            if i < max_beats {
                out[2 * i] = class as i16;
                out[2 * i + 1] = r;
            }
        }
        out
    }
}

impl BiomedicalApp for HeartbeatClassifier {
    fn name(&self) -> &'static str {
        "Heartbeat Classifier"
    }

    fn kind(&self) -> AppKind {
        AppKind::HeartbeatClassifier
    }

    fn input_len(&self) -> usize {
        self.delineator.input_len()
    }

    fn output_len(&self) -> usize {
        2 * self.delineator.max_beats()
    }

    fn memory_words(&self) -> usize {
        // Delineation buffers + the classification output region.
        self.delineator.memory_words() + self.output_len()
    }

    /// The delineator's stages, then classification.
    fn stages(&self) -> usize {
        self.delineator.stages() + 1
    }

    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage) {
        // Delineation, writing its own buffers through `mem`.
        if k < self.delineator.stages() {
            self.delineator.run_stage(k, input, mem);
            return;
        }
        // Classification over the (possibly corrupted) fiducials read back
        // from the delineator's output, reading P/QRS amplitudes from the
        // delineator's smoothed buffer — through the faulty memory, like
        // everything else.
        let fiducials = self.delineator.read_output(mem);
        let n = self.delineator.input_len();
        let lp2_base = self.delineator.lp2_base();
        let mut lp2 = Vec::with_capacity(n);
        for i in 0..n {
            lp2.push(f64::from(mem.read(lp2_base + i)));
        }
        let classes = self.classify(&fiducials, |i| lp2[i], self.delineator.max_beats());
        mem.store_slice(self.delineator.memory_words(), &classes);
    }

    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
        mem.load_slice(self.delineator.memory_words(), self.output_len())
    }

    fn run_reference(&self, input: &[i16]) -> Vec<f64> {
        let fiducials: Vec<i16> = self
            .delineator
            .run_reference(input)
            .into_iter()
            .map(|v| v as i16)
            .collect();
        let lp2 = self.delineator.lp2_reference(input);
        self.classify(&fiducials, |i| lp2[i], self.delineator.max_beats())
            .into_iter()
            .map(f64::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecStorage;
    use dream_ecg::{Database, Pathology};

    fn run_on(record_id: u16, n: usize) -> Vec<(BeatClass, usize)> {
        let record = Database::record(record_id, n);
        let app = HeartbeatClassifier::new(n, record.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&record.samples, &mut mem);
        HeartbeatClassifier::decode_output(&out)
    }

    #[test]
    fn sinus_rhythm_classifies_normal() {
        let beats = run_on(100, 2048); // normal sinus
        assert!(beats.len() >= 3, "{beats:?}");
        let normal = beats
            .iter()
            .filter(|(k, _)| *k == BeatClass::Normal)
            .count();
        assert!(
            normal * 2 > beats.len(),
            "sinus record should be mostly normal: {beats:?}"
        );
    }

    #[test]
    fn af_record_flags_missing_p_waves() {
        // Atrial fibrillation: no P waves -> beats leave the Normal class.
        let suite = Database::date16_suite(2048);
        let af = suite
            .iter()
            .find(|r| r.pathology == Pathology::AtrialFibrillation)
            .unwrap();
        let app = HeartbeatClassifier::new(2048, af.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let beats = HeartbeatClassifier::decode_output(&app.run(&af.samples, &mut mem));
        assert!(!beats.is_empty());
        let abnormal = beats
            .iter()
            .filter(|(k, _)| *k != BeatClass::Normal)
            .count();
        assert!(
            abnormal * 2 >= beats.len(),
            "AF beats should not classify as conducted-normal: {beats:?}"
        );
    }

    #[test]
    fn reference_and_fixed_point_agree_on_clean_memory() {
        let record = Database::record(103, 2048);
        let app = HeartbeatClassifier::new(2048, record.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&record.samples, &mut mem);
        let reference = app.run_reference(&record.samples);
        for (i, (&got, &want)) in out.iter().zip(&reference).enumerate() {
            assert!(
                (f64::from(got) - want).abs() <= 3.0,
                "output {i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn output_pairs_are_well_formed() {
        let record = Database::record(101, 2048);
        let app = HeartbeatClassifier::new(2048, record.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&record.samples, &mut mem);
        assert_eq!(out.len(), app.output_len());
        for c in out.chunks(2) {
            if c[1] != 0 {
                assert!(BeatClass::from_code(c[0]).is_some(), "bad class {}", c[0]);
            }
        }
    }

    #[test]
    fn decode_skips_empty_slots() {
        let buf = [1i16, 100, 0, 0, 2, 500, 0, 0];
        let beats = HeartbeatClassifier::decode_output(&buf);
        assert_eq!(
            beats,
            vec![(BeatClass::Normal, 100), (BeatClass::Ventricular, 500)]
        );
    }
}
