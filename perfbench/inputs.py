"""Seeded inputs drawn from the model's own generative equations.

The test-scale truth equals the acceptance suite's recovery parameters
(4 ages x 3 causes); the paper-scale truth extends the same values smoothly
to 13 ages x 6 causes.  Every panel has 30 years with the shock in model
year 25, and exposures of 1e12 so that Poisson count noise is negligible
next to the model's own randomness.
"""

import numpy as np

from lingermort.estimation import FitResult
from lingermort.model import JumpPattern, ParamSet, information_criteria, mean_factors
from lingermort.panel import (AgeAxis, CauseAxis, MortalityPanel, SIX_CAUSE_AXIS,
                              write_canonical_csv)

T_YEARS = 30
JUMP_T = 25               # 1-based model year of the shock
FIRST_YEAR = 1991
EXPOSURE = 1e12

SMALL_TRUTH = ParamSet(
    B=np.array([0.1, 0.2, 0.3, 0.4]), D=-0.6, sigma_eta=0.15,
    phi=np.array([1.0, 0.7, 1.3]),
    b=np.array([0.4, 0.3, 0.2, 0.1]), d=-0.2, sigma_xi=0.1,
    mu=np.array([[0.30, 0.20, 0.10],
                 [0.25, 0.15, 0.35],
                 [0.20, 0.30, 0.15],
                 [0.35, 0.10, 0.20]]),
    sigma_J=0.03,
    gamma=np.array([0.5, 0.3, 0.4]),
    alpha=np.array([1.2, 1.5, 1.0]),
    beta=np.array([0.8, 1.0, 1.2]),
    p=0.04, sigma_e=0.02)
SMALL_AGES = AgeAxis.from_labels(("25-34", "35-44", "45-54", "55-64"))
SMALL_CAUSES = CauseAxis(("c0", "c1", "c2"))
SMALL_LOGM0 = np.log([[1e-4, 5e-5, 8e-5], [3e-4, 1e-4, 2e-4],
                      [1e-3, 4e-4, 6e-4], [3e-3, 1e-3, 2e-3]])

_X13 = np.arange(13)
_C6 = np.arange(6)
PAPER_TRUTH = ParamSet(
    B=(1.0 + 0.25 * _X13) / (1.0 + 0.25 * _X13).sum(), D=-0.6, sigma_eta=0.15,
    phi=np.array([1.0, 0.7, 1.3, 0.9, 1.1, 0.8]),
    b=(13.0 - _X13) / (13.0 - _X13).sum(), d=-0.2, sigma_xi=0.1,
    mu=0.1 + 0.25 * ((3 * _X13[:, None] + 5 * _C6[None, :]) % 11) / 10.0,
    sigma_J=0.03,
    gamma=np.array([0.5, 0.3, 0.4, 0.2, 0.6, 0.35]),
    alpha=np.array([1.2, 1.5, 1.0, 1.3, 0.9, 1.1]),
    beta=np.array([0.8, 1.0, 1.2, 0.9, 1.1, 1.0]),
    p=0.04, sigma_e=0.02)
PAPER_AGES = AgeAxis.from_labels(
    tuple(f"{a}-{a + 4}" for a in range(25, 85, 5)) + ("85+",))
PAPER_CAUSES = SIX_CAUSE_AXIS
PAPER_LOGM0 = (np.log([1e-5, 5e-5, 3e-5, 1e-5, 3e-5, 2e-5])[None, :]
               + 0.09 * (np.asarray(PAPER_AGES.midpoints)[:, None] - 25.0))


def draw_panel(rng, truth, ages, causes, logm0, count_rng=None):
    """One death-count panel from the generative model, shock in JUMP_T.

    ``rng`` draws the model's randomness and then, unless ``count_rng`` is
    given, the Poisson counts.  The draw order matches the acceptance
    suite's recovery generator, so a test-scale panel drawn from
    ``default_rng(s)`` equals its seed-s panel."""
    X, C, T = truth.X, truth.C, T_YEARS
    L = mean_factors(JumpPattern(T, JUMP_T), truth)
    eta = rng.normal(0.0, truth.sigma_eta, T - 1)
    xi = rng.normal(0.0, truth.sigma_xi, T - 1)
    J = truth.mu + rng.normal(0.0, truth.sigma_J, (X, C))
    e = rng.normal(0.0, truth.sigma_e, (X, T, C))
    z = (truth.B[:, None, None] * (truth.D + eta)[None, :, None]
         + truth.b[:, None, None] * (truth.d + xi)[None, :, None]
         * truth.phi[None, None, :]
         + L[None, :, :] * J[:, None, :]
         + e[:, 1:, :] - e[:, :-1, :])
    logm = logm0[:, None, :] + np.concatenate(
        [np.zeros((X, 1, C)), np.cumsum(z, axis=1)], axis=1)
    E = np.full((X, T), EXPOSURE)
    counts = rng if count_rng is None else count_rng
    deaths = np.maximum(
        counts.poisson(E[:, :, None] * np.exp(logm)).astype(float), 1.0)
    return MortalityPanel(ages, causes, FIRST_YEAR + np.arange(T), deaths, E)


def small_panel(rng, count_rng=None):
    return draw_panel(rng, SMALL_TRUTH, SMALL_AGES, SMALL_CAUSES, SMALL_LOGM0,
                      count_rng)


def paper_panel(rng, count_rng=None):
    return draw_panel(rng, PAPER_TRUTH, PAPER_AGES, PAPER_CAUSES, PAPER_LOGM0,
                      count_rng)


def jump_year(panel):
    return int(panel.years[JUMP_T - 1])


def write_panel_csv(pn, path):
    """Write a panel as canonical CSV; floats print exactly, so loading it
    back gives the same panel."""
    write_canonical_csv(
        [{"age_group": age, "year": int(year), "cause": cause,
          "deaths": float(pn.deaths[x, t, c]), "population": float(pn.exposures[x, t])}
         for x, age in enumerate(pn.age_axis.labels)
         for t, year in enumerate(pn.years)
         for c, cause in enumerate(pn.cause_axis.causes)], path)


def truth_fit_result(panel, truth):
    """A FitResult that carries the generating parameters, so projection
    and valuation run on a paper-scale model without paying for a fit."""
    X, C = truth.X, truth.C
    n_obs = X * C * (panel.years.size - 1)
    n_params = truth.n_free_params
    ic = information_criteria(0.0, n_params, n_obs)
    return FitResult(params=truth.copy(), variant="full", loglik=0.0,
                     aic=ic["aic"], bic=ic["bic"], n_params=n_params,
                     n_obs=n_obs, converged=True, n_iter=0,
                     jump_year=jump_year(panel),
                     first_year=int(panel.years[0]),
                     final_year=int(panel.years[-1]),
                     final_log_rates=np.log(panel.rates[:, -1, :]),
                     age_labels=tuple(panel.age_axis.labels),
                     cause_labels=tuple(panel.cause_axis.causes))
