//! Level one, written once: the walk of a compiled event stream that
//! every predictor with a table or a history register rides.
//!
//! Level one's slot decisions — which table slot an event's branch
//! occupies, and whether the access filled or replaced it — depend only
//! on the stream and the table's geometry, so a compiled walk makes
//! them apart from the predictor and hands each event's decision in as
//! a probe word ([`Probe::word`](crate::Probe::word)). The history
//! registers depend only on those decisions and the outcomes, so
//! predictors of one kind on one table (and, for Two-Level predictors,
//! one replacement rule) keep one register between them: every register
//! starts all-ones and shifts the newest outcome into bit 0, so a k-bit
//! register always equals the low k bits of a wider one.
//!
//! A [`Walk`] is such a group: one `u16` register per slot, as wide as
//! its widest member's, and each member's level two beside it. A global
//! register is a table of one slot. Each predictor kind supplies only a
//! [`Member`] — its mask, an optional per-slot state word, and its fused
//! cycle:
//!
//! | member | predictors | state word |
//! |---|---|---|
//! | [`TwoLevelMember`](crate::TwoLevelMember) | [`TwoLevelAdaptive`](crate::TwoLevelAdaptive) | its §3.2 cached bit |
//! | [`PatternMember`](crate::PatternMember) | PAg, PAs, GAg, GAs, gshare | none |
//! | [`LeeSmithMember`](crate::LeeSmithMember) | [`LeeSmithBtb`](crate::LeeSmithBtb) | its automaton's code; no register |
//! | [`StaticTrainingMember`](crate::StaticTrainingMember) | [`StaticTraining`](crate::StaticTraining) | none |
//!
//! Members never read each other's level two. Each predictor builds its
//! own walk from a fresh predictor (its `walker`): a group of one, its
//! member held inline, so a lone predictor's walk compiles to a loop
//! with no member loop left in it. [`Walk::group`] joins fresh walks of
//! one kind into one whose members sit in a vector. Each member guesses
//! event for event as its predictor's
//! [`predict_update`](crate::Predictor::predict_update) would over the
//! same branches, leaving the predictor itself untouched.

use crate::automaton::CodeTables;
use crate::hrt::Probe;
use std::marker::PhantomData;
use tlat_trace::SiteId;

/// One predictor's level two, as a member of a [`Walk`].
///
/// A walk's slot layout is a property of its member type, fixed at
/// compile time: the register, if [`REGISTER`](Member::REGISTER)
/// holds, then each member's state word, if [`STATE`](Member::STATE)
/// does.
pub trait Member {
    /// Whether the member reads the slot's history register.
    const REGISTER: bool;

    /// Whether the member keeps a state word per slot.
    const STATE: bool;

    /// Whether a probe word's flags re-initialize the slot: only a
    /// Two-Level member's. A fill must re-read its cached bit from its
    /// current table, and under `reinit_on_replace` a replacement
    /// resets the slot. For every other kind a fill changes nothing —
    /// a slot that fills was never touched, so it still holds its
    /// initial state — and none re-initializes a replaced slot.
    const REINIT: bool = false;

    /// Its own history bits, the low bits of the walk's register (0
    /// without a register).
    fn mask(&self) -> u16;

    /// The probe flags that re-initialize its slot, where
    /// [`REINIT`](Member::REINIT) holds.
    fn fresh(&self) -> u32 {
        0
    }

    /// Its state word in a fresh slot whose register reads `register`.
    fn state(&self, _register: u16) -> u16 {
        0
    }

    /// How many events of a same-site, same-outcome run it steps before
    /// it sits at a fixed point that guesses the run and that the run's
    /// later events leave unchanged. A run uses one slot, and only its
    /// first event can fill or replace it; the run also uses one
    /// pattern set and one address term. So the member's register reads
    /// only the run's outcome after its history bits, and the one
    /// automaton it then indexes converges within
    /// [`CodeTables::CONVERGENCE`] updates; a member with no register
    /// needs only the convergence. A Two-Level member's cached bit
    /// caches the run's outcome at the same step, and a two-lookup
    /// member reads that same entry.
    fn run_bound(&self) -> usize {
        self.mask().count_ones() as usize + CodeTables::CONVERGENCE
    }

    /// One event at `site`: the member's guess, made before `taken`
    /// trains it, from the slot's register before (`old`) and after
    /// (`new`) the shift and its own state word in the slot.
    fn cycle(&mut self, site: SiteId, old: u16, new: u16, taken: bool, state: &mut u16) -> bool;
}

/// The walk of a group of predictors of one kind on one table: per
/// slot, one history register as wide as the widest member's, and each
/// member's state word beside it. `Ms` holds the members: an inline
/// array of one for a predictor's own walk, a vector for a group
/// ([`Walk::group`]).
#[derive(Debug, Clone)]
pub struct Walk<M, Ms = Vec<M>> {
    members: Ms,
    /// Per slot, the register, then each member's state word, so one
    /// slot's state sits together.
    slots: Vec<u16>,
    /// The register's width: the widest member's mask.
    mask: u16,
    /// The probe flags that re-initialize a slot, where `M::REINIT`
    /// holds.
    fresh: u32,
    kind: PhantomData<M>,
}

impl<M: Member, Ms: AsRef<[M]> + AsMut<[M]>> Walk<M, Ms> {
    /// A walk of `members` over `slots` fresh slots: each an all-ones
    /// register, with each member's state word for it.
    pub(crate) fn fresh(members: Ms, slots: usize) -> Self {
        let each = members.as_ref();
        let mask = each.iter().map(M::mask).max().expect("a group has members");
        let register = M::REGISTER.then_some(mask);
        let states = each.iter().filter(|_| M::STATE).map(|m| m.state(mask));
        let slot: Vec<u16> = register.into_iter().chain(states).collect();
        Walk {
            slots: slot.repeat(slots),
            fresh: each[0].fresh(),
            members,
            mask,
            kind: PhantomData,
        }
    }

    /// How many predictors this walk steps.
    pub fn members(&self) -> usize {
        self.members.as_ref().len()
    }

    /// Words per slot for `members` members.
    fn stride(members: usize) -> usize {
        usize::from(M::REGISTER) + if M::STATE { members } else { 0 }
    }

    /// One event at `site` in the slot of probe word `word`: each
    /// member's guess, made before `taken` trains it, ORed into bit
    /// `bit` of that member's word of `guesses` (one word per member,
    /// in member order). The register shifts once for all of them.
    #[inline(always)]
    pub fn step(&mut self, word: u32, site: SiteId, taken: bool, bit: u32, guesses: &mut [u64]) {
        let members = self.members.as_mut();
        let stride = Self::stride(members.len());
        let at = (word & Probe::SLOT) as usize * stride;
        let (register, states) = self.slots[at..at + stride].split_at_mut(usize::from(M::REGISTER));
        if M::REINIT && word & self.fresh != 0 {
            register.fill(self.mask);
            for (state, member) in states.iter_mut().zip(&*members) {
                *state = member.state(self.mask);
            }
        }
        let old = register.first().map_or(0, |&register| register);
        let new = (old << 1 | u16::from(taken)) & self.mask;
        register.fill(new);
        let cycle = |member: &mut M, state: &mut u16, guesses: &mut u64| {
            *guesses |= u64::from(member.cycle(site, old, new, taken, state)) << bit;
        };
        if M::STATE {
            for ((member, state), guesses) in members.iter_mut().zip(states).zip(guesses) {
                cycle(member, state, guesses);
            }
        } else {
            for (member, guesses) in members.iter_mut().zip(guesses) {
                cycle(member, &mut 0, guesses);
            }
        }
    }

    /// How many events of a same-site, same-outcome run this walk steps
    /// before every member sits at a fixed point that guesses the run:
    /// the largest member's [`Member::run_bound`]. Stepping a member
    /// past its own bound changes nothing, and every later event of the
    /// run is a correct guess for every member that changes no walk
    /// state, so a walk may credit it without a step. A Static Training
    /// member never reaches such a point, so its walk returns
    /// [`usize::MAX`].
    pub fn run_bound(&self) -> usize {
        let bounds = self.members.as_ref().iter().map(M::run_bound);
        bounds.max().expect("a group has members")
    }
}

impl<M: Member> Walk<M> {
    /// Joins fresh `walks` — as built, never yet stepped — of
    /// predictors of one kind on one table, with one replacement rule,
    /// into one walk whose members are theirs, in order.
    ///
    /// # Panics
    ///
    /// Panics when `walks` is empty, or when their slot counts or
    /// replacement rules differ.
    pub fn group<Ms>(walks: impl IntoIterator<Item = Walk<M, Ms>>) -> Self
    where
        Ms: AsRef<[M]> + AsMut<[M]> + IntoIterator<Item = M>,
    {
        let walks: Vec<_> = walks.into_iter().collect();
        let slots = |w: &Walk<M, Ms>| w.slots.len() / Walk::<M, Ms>::stride(w.members());
        let first = walks.first().expect("a group has members");
        let (count, fresh) = (slots(first), first.fresh);
        assert!(
            walks.iter().all(|w| slots(w) == count),
            "grouped walks cover one table"
        );
        assert!(
            walks.iter().all(|w| w.fresh == fresh),
            "grouped walks share one replacement rule"
        );
        let members = walks.into_iter().flat_map(|w| w.members).collect();
        Walk::fresh(members, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AutomatonKind, Gshare, GshareConfig, HrtConfig, LeeSmithBtb, LeeSmithConfig, SiteResolver,
        StaticTraining, StaticTrainingConfig, TwoLevelAdaptive, TwoLevelConfig, TwoLevelVariant,
        VariantConfig,
    };

    fn at(history_bits: u8) -> TwoLevelAdaptive {
        TwoLevelAdaptive::new(TwoLevelConfig {
            history_bits,
            ..TwoLevelConfig::paper_default()
        })
    }

    fn st(history_bits: u8) -> StaticTraining {
        let config = StaticTrainingConfig {
            history_bits,
            ..StaticTrainingConfig::paper_default()
        };
        StaticTraining::train(config, &tlat_trace::Trace::new())
    }

    fn ls(automaton: AutomatonKind) -> LeeSmithBtb {
        LeeSmithBtb::new(LeeSmithConfig {
            automaton,
            ..LeeSmithConfig::paper_default()
        })
    }

    #[test]
    fn the_long_run_floor_is_the_shortest_lanes_bound() {
        // Each walk with a history register bounds a run by its history
        // bits plus the automata's one convergence bound, so with the
        // shortest legal register, one bit, its bound is the compiled
        // stream's long-run floor: the index holds every run such a
        // walk can collapse. A Lee & Smith walk's bound is the floor
        // minus one, so of a run the index leaves out it steps at most
        // one event it could have credited, and a Static Training walk
        // never collapses. Exact either way.
        assert_eq!(tlat_trace::LONG_RUN_FLOOR, 1 + CodeTables::CONVERGENCE);
        let resolver = SiteResolver::new(vec![0x1000]);
        for bits in [1, 6, 12, crate::MAX_HISTORY_BITS] {
            let want = usize::from(bits) + CodeTables::CONVERGENCE;
            assert_eq!(at(bits).walker(1).run_bound(), want);
            let kind = AutomatonKind::A2;
            let pag = TwoLevelVariant::new(VariantConfig::pag(bits, kind, HrtConfig::Ideal));
            let gag = TwoLevelVariant::new(VariantConfig::gag(bits, kind));
            assert_eq!(pag.walker(1, &resolver).run_bound(), want);
            assert_eq!(gag.walker(0, &resolver).run_bound(), want);
            let gshare = Gshare::new(GshareConfig {
                history_bits: bits,
                automaton: kind,
            });
            assert_eq!(gshare.walker(&resolver).run_bound(), want);
            assert!(want >= tlat_trace::LONG_RUN_FLOOR);
            assert_eq!(st(bits).walker(1).run_bound(), usize::MAX);
        }
        for automaton in AutomatonKind::ALL {
            let bound = ls(automaton).walker(1).run_bound();
            assert_eq!(bound, CodeTables::CONVERGENCE);
            assert_eq!(bound, tlat_trace::LONG_RUN_FLOOR - 1);
        }
    }

    #[test]
    fn a_groups_run_bound_is_its_largest_members() {
        // Every member must sit at its fixed point before a walk credits
        // a run's tail, so a group steps as far as its slowest member.
        let at = Walk::group([at(2).walker(4), at(9).walker(4)]);
        assert_eq!(at.run_bound(), 9 + CodeTables::CONVERGENCE);
        let kinds = [AutomatonKind::LastTime, AutomatonKind::A2];
        let ls = Walk::group(kinds.map(|kind| ls(kind).walker(4)));
        assert_eq!(ls.run_bound(), CodeTables::CONVERGENCE);
        let st = Walk::group([st(2).walker(4), st(9).walker(4)]);
        assert_eq!(st.run_bound(), usize::MAX);
    }
}
