"""Checks of the checks: each checker must flag a known-wrong output and
pass the matching correct one.  run.py calls ``run_selftest`` before every
run, prints the verdicts, and refuses to measure if a checker has gone blind.

The known-wrong fit is the false optimum lingermort 0.1.0 reaches on the
acceptance suite's recovery reference draw (seed 1000): its engine reports
a log likelihood of about 833.6 where the dense oracle gives about 735.6.
perfbench/README.md records how the fixture was made.
"""

import copy
import json
import os
from dataclasses import replace

import numpy as np

import checks
import inputs
from lingermort import actuarial, model, projection
from lingermort.model import ParamSet
from lingermort.panel import improvement_tensor

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                       "false_optimum_seed1000.json")
FIXTURE_SEED = 1000


class _Reported:
    """The two fields of a FitResult the fit checker reads."""

    def __init__(self, params, loglik):
        self.params = params
        self.loglik = loglik


def _fixture_panel():
    return inputs.small_panel(np.random.default_rng(FIXTURE_SEED))


def run_selftest():
    """Returns (verdicts, problems): one line per probe, and the probes whose
    checker answered wrongly."""
    verdicts, problems = [], []

    def expect(label, fails, should_fail):
        ok = bool(fails) == should_fail
        verdicts.append(f"{label}: {'flagged' if fails else 'passed'}"
                        + (f" ({fails[0]})" if fails else ""))
        if not ok:
            problems.append(label)

    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    pn = _fixture_panel()
    z = improvement_tensor(pn).z
    false_opt = _Reported(ParamSet(**doc["params"]), doc["loglik"])
    expect("fit checker, recorded false optimum", checks.check_fit_full(false_opt, pn), True)
    truth = inputs.SMALL_TRUTH
    expect("fit checker, truth at its engine loglik",
           checks.check_fit_full(_Reported(truth, model.mixture_loglik(truth, z)), pn),
           False)

    fr = inputs.truth_fit_result(pn, truth)
    ens = projection.project(fr, 4, 6, seed=FIXTURE_SEED)
    bent = replace(ens, log_rates=ens.log_rates.copy())
    bent.log_rates[1, 2, 3, 1] = np.nextafter(bent.log_rates[1, 2, 3, 1], np.inf)
    expect("ensemble checker, one cell moved by one ulp",
           checks.check_ensemble_roundtrip(bent, ens), True)
    expect("ensemble checker, identical copy",
           checks.check_ensemble_roundtrip(
               replace(ens, log_rates=ens.log_rates.copy()), ens), False)

    big = projection.project(fr, 200, 60, seed=FIXTURE_SEED)
    surv = projection.survival_curves(big, actuarial.DEFAULT_ANNUITY.issue_age,
                                      inputs.SMALL_AGES.midpoints)
    hr = actuarial.optimal_hedge(actuarial.value_annuity(surv),
                                 actuarial.value_insurance(surv))
    doc_ok = {"weight": hr.weight, "weight_raw": hr.weight_raw,
              "portfolio": dict(hr.portfolio_measures)}
    doc_bad = copy.deepcopy(doc_ok)
    doc_bad["weight"] *= 1.0 + 1e-9
    expect("hedge checker, weight off by 1e-9",
           checks.check_hedge_json(doc_bad, big, inputs.SMALL_AGES.midpoints), True)
    expect("hedge checker, library result",
           checks.check_hedge_json(doc_ok, big, inputs.SMALL_AGES.midpoints), False)

    expect("hedge closed form, weight_raw off by 1e-7",
           checks.check_hedge_closed_form(
               surv, replace(hr, weight_raw=hr.weight_raw * (1.0 + 1e-7))), True)
    expect("hedge closed form, library hedge",
           checks.check_hedge_closed_form(surv, hr), False)

    rows = [0, big.n_paths - 1]
    issue_age = actuarial.DEFAULT_ANNUITY.issue_age
    bent_surv = surv[rows]
    bent_surv[1, 30] *= 1.0 + 1e-7
    expect("survival checker, one value off by 1e-7",
           checks.check_survival_reference(big.log_rates[rows], bent_surv, issue_age,
                                           inputs.SMALL_AGES.midpoints), True)
    expect("survival checker, library survival",
           checks.check_survival_reference(big.log_rates[rows], surv[rows], issue_age,
                                           inputs.SMALL_AGES.midpoints), False)
    return verdicts, problems

