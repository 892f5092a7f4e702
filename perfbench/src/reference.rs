//! The independent reference for check-mode verdicts.
//!
//! Built only on the paper's definitions: the extended semantics is
//! pointwise (Def. 3), so `sem(C, S)` is the union over `φ ∈ S` of the
//! final states small-step execution reaches from `φ`'s program store
//! ([`reachable_finals`]), with `φ`'s logical store carried along; and a
//! triple is valid iff every candidate set satisfying the precondition
//! maps to a set satisfying the postcondition (Def. 5). Candidate sets come
//! from [`candidate_sets`], assertions are evaluated by [`eval_assertion`].
//! Nothing here touches `sem_memo`, `EvalCache` or `check_triple`, so a
//! defect in the verifier's memo layers or its checker cannot hide behind
//! the same defect in the reference.

use std::collections::{BTreeMap, BTreeSet};

use hhl_assert::{candidate_sets, eval_assertion};
use hhl_cli::{Mode, Spec};
use hhl_lang::smallstep::reachable_finals;
use hhl_lang::{ExtState, StateSet, Store};

/// Exploration cap per initial store, orders of magnitude above the
/// configurations any generated program reaches (the agreement test in
/// `main.rs` pins the reference to the checker on the corpus).
const MAX_CONFIGS: usize = 1 << 20;

/// The reference verdict of a check-mode spec: `Ok("PASS" | "FAIL")`.
///
/// # Errors
///
/// When the spec is not in check mode.
pub fn check_verdict(spec: &Spec) -> Result<&'static str, String> {
    if spec.mode != Mode::Check {
        return Err(format!(
            "the reference judges check mode only, not {}",
            spec.mode
        ));
    }
    let cfg = &spec.config;
    let mut finals: BTreeMap<Store, BTreeSet<Store>> = BTreeMap::new();
    for set in candidate_sets(&cfg.universe, &cfg.check) {
        if !eval_assertion(&spec.pre, &set, &cfg.check.eval) {
            continue;
        }
        let mut image = StateSet::new();
        for phi in set.iter() {
            if !finals.contains_key(&phi.program) {
                let reached = reachable_finals(&spec.cmd, &phi.program, &cfg.exec, MAX_CONFIGS);
                finals.insert(phi.program.clone(), reached);
            }
            for sigma in &finals[&phi.program] {
                image.insert(ExtState::new(phi.logical.clone(), sigma.clone()));
            }
        }
        if !eval_assertion(&spec.post, &image, &cfg.check.eval) {
            return Ok("FAIL");
        }
    }
    Ok("PASS")
}
