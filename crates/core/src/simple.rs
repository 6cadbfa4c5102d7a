//! The static comparison schemes: Always Taken, Always Not Taken,
//! Backward-Taken/Forward-Not-taken, and opcode-bit profiling.

use crate::hrt::SiteResolver;
use crate::predictor::Predictor;
use std::collections::HashMap;
use tlat_trace::{BranchClass, BranchRecord, CompiledTrace, Trace};

/// Predicts every branch taken (~60 % accuracy on the paper's mix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysTaken;

impl Predictor for AlwaysTaken {
    fn name(&self) -> String {
        "AlwaysTaken".to_owned()
    }

    fn predict(&mut self, _branch: &BranchRecord) -> bool {
        true
    }

    fn update(&mut self, _branch: &BranchRecord) {}
}

/// Predicts every branch not taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysNotTaken;

impl Predictor for AlwaysNotTaken {
    fn name(&self) -> String {
        "AlwaysNotTaken".to_owned()
    }

    fn predict(&mut self, _branch: &BranchRecord) -> bool {
        false
    }

    fn update(&mut self, _branch: &BranchRecord) {}
}

/// Backward Taken, Forward Not taken (Smith 1981).
///
/// Loop back-edges point backward and are usually taken; forward
/// branches skip code and are more often not taken. Effective on
/// loop-bound programs, poor on irregular ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Btfn;

impl Predictor for Btfn {
    fn name(&self) -> String {
        "BTFN".to_owned()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        branch.is_backward()
    }

    fn update(&mut self, _branch: &BranchRecord) {}
}

/// The simple profiling scheme of §4.2/§5.3.
///
/// A profiling run counts taken/not-taken per static branch; the
/// majority direction is frozen into a per-branch prediction bit (as a
/// compiler would set an opcode hint bit). Unseen branches predict
/// taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfilePredictor {
    bits: HashMap<u32, bool>,
    /// Per-trace frozen bits by [`SiteId`](tlat_trace::SiteId),
    /// resolved by [`bind_sites`](ProfilePredictor::bind_sites); empty
    /// until bound.
    site_bits: Vec<bool>,
}

impl ProfilePredictor {
    /// Profiles `trace` and freezes the per-branch majority directions.
    /// Ties predict taken.
    pub fn train(trace: &Trace) -> Self {
        let mut counts: HashMap<u32, (u64, u64)> = HashMap::new();
        for b in trace.iter() {
            if b.class != BranchClass::Conditional {
                continue;
            }
            let (taken, total) = counts.entry(b.pc).or_default();
            *taken += b.taken as u64;
            *total += 1;
        }
        ProfilePredictor {
            bits: counts
                .into_iter()
                .map(|(pc, (taken, total))| (pc, 2 * taken >= total))
                .collect(),
            site_bits: Vec::new(),
        }
    }

    /// [`train`](ProfilePredictor::train) over a compiled event
    /// stream: the per-site taken/total counts the stream already
    /// carries are exactly the per-pc tallies a profiling pass would
    /// gather (sites intern one-to-one with branch addresses), so no
    /// record walk is needed. Identical to the record path (pinned by
    /// tests).
    pub fn train_compiled(compiled: &CompiledTrace) -> Self {
        ProfilePredictor {
            bits: compiled
                .site_pcs()
                .iter()
                .zip(compiled.site_taken().iter().zip(compiled.site_counts()))
                .map(|(&pc, (&taken, &total))| (pc, 2 * taken >= total))
                .collect(),
            site_bits: Vec::new(),
        }
    }

    /// Binds this predictor to a compiled trace's interned sites: the
    /// frozen per-pc bits are resolved once into the dense
    /// `SiteId → bit` table [`site_bits`](ProfilePredictor::site_bits)
    /// returns, so scoring a walk needs no per-branch hashing.
    pub fn bind_sites(&mut self, resolver: &SiteResolver) {
        self.site_bits = resolver
            .site_pcs()
            .iter()
            .map(|pc| self.bits.get(pc).copied().unwrap_or(true))
            .collect();
    }

    /// The bound per-site frozen bits (see
    /// [`bind_sites`](ProfilePredictor::bind_sites)). The bits never
    /// change during a walk, so a gang walk scores a profile lane in
    /// closed form — per site, not per event.
    pub fn site_bits(&self) -> &[bool] {
        &self.site_bits
    }

    /// Number of static branches with a frozen prediction bit.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when no branches were profiled.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

impl Predictor for ProfilePredictor {
    fn name(&self) -> String {
        "Profile".to_owned()
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        self.bits.get(&branch.pc).copied().unwrap_or(true)
    }

    fn update(&mut self, _branch: &BranchRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u32, target: u32, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, target, taken)
    }

    #[test]
    fn always_taken_and_not_taken() {
        let b = cond(0x1000, 0x800, false);
        assert!(AlwaysTaken.predict(&b));
        assert!(!AlwaysNotTaken.predict(&b));
    }

    #[test]
    fn btfn_uses_target_direction() {
        let backward = cond(0x1000, 0x0800, true);
        let forward = cond(0x1000, 0x2000, true);
        let mut p = Btfn;
        assert!(p.predict(&backward));
        assert!(!p.predict(&forward));
    }

    #[test]
    fn btfn_is_perfect_on_simple_loops() {
        // Back-edge taken n-1 times then falls through; BTFN predicts
        // taken every time: misses once per loop execution.
        let mut p = Btfn;
        let mut correct = 0;
        for i in 0..100 {
            let b = cond(0x1000, 0x0f00, i % 10 != 9);
            correct += (p.predict(&b) == b.taken) as u32;
            p.update(&b);
        }
        assert_eq!(correct, 90);
    }

    #[test]
    fn profile_follows_majority() {
        let mut trace = Trace::new();
        for i in 0..10 {
            trace.push(cond(0x1000, 0x800, i < 7)); // 70 % taken
            trace.push(cond(0x2000, 0x800, i < 3)); // 30 % taken
        }
        let mut p = ProfilePredictor::train(&trace);
        assert_eq!(p.len(), 2);
        assert!(p.predict(&cond(0x1000, 0x800, false)));
        assert!(!p.predict(&cond(0x2000, 0x800, true)));
        // Unseen branches predict taken.
        assert!(p.predict(&cond(0x3000, 0x800, false)));
    }

    #[test]
    fn profile_tie_breaks_taken() {
        let mut trace = Trace::new();
        trace.push(cond(0x1000, 0x800, true));
        trace.push(cond(0x1000, 0x800, false));
        let mut p = ProfilePredictor::train(&trace);
        assert!(p.predict(&cond(0x1000, 0x800, false)));
    }

    #[test]
    fn profile_ignores_unconditional_branches() {
        let mut trace = Trace::new();
        trace.push(BranchRecord::unconditional_imm(0x1000, 0x800));
        let p = ProfilePredictor::train(&trace);
        assert!(p.is_empty());
    }

    #[test]
    fn compiled_training_equals_record_training() {
        let mut trace = Trace::new();
        for i in 0..300 {
            trace.push(cond(0x1000 + (i % 4) * 8, 0x800, i % 3 == 0));
            if i % 5 == 0 {
                trace.push(BranchRecord::unconditional_imm(0x5000, 0x800));
            }
        }
        let compiled = tlat_trace::CompiledTrace::compile(&trace);
        assert_eq!(
            ProfilePredictor::train_compiled(&compiled),
            ProfilePredictor::train(&trace)
        );
    }

    #[test]
    fn profile_accuracy_equals_majority_fraction() {
        // The paper computes profiling accuracy as
        // sum(max(taken, not_taken)) / total.
        let mut trace = Trace::new();
        for i in 0..100 {
            trace.push(cond(0x1000, 0x800, i % 10 < 8)); // 80 % taken
        }
        let mut p = ProfilePredictor::train(&trace);
        let correct: u64 = trace.iter().map(|b| (p.predict(b) == b.taken) as u64).sum();
        assert_eq!(correct, 80);
    }

    #[test]
    fn names() {
        assert_eq!(AlwaysTaken.name(), "AlwaysTaken");
        assert_eq!(AlwaysNotTaken.name(), "AlwaysNotTaken");
        assert_eq!(Btfn.name(), "BTFN");
        assert_eq!(ProfilePredictor::default().name(), "Profile");
    }
}
