"""Output checks.  Each returns a list of failure messages; empty means the
output is correct.

Fits are checked against the dense oracle ``model.assemble_full_moments``:
the stacked improvements are Gaussian under each jump pattern, so the exact
log density needs nothing but a Cholesky factor of the dense covariance.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular

from lingermort import actuarial, model, projection
from lingermort.actuarial import ProductSpec
from lingermort.panel import improvement_tensor

#: relative tolerance between a reported log likelihood and the oracle's
LOGLIK_RTOL = 1e-6
#: absolute tolerance on the rate-0 identity PV(insurance) + S(term) = 1
UNIT_ATOL = 1e-9
#: relative tolerance between hedge.json and its library recomputation
HEDGE_RTOL = 1e-12
#: relative tolerance between library results and the scalar references
#: below, which sum in another order
REF_RTOL = 1e-9


def dense_log_density(params, z, pattern):
    """Exact Gaussian log density of z under one pattern from the dense
    covariance.  Raises numpy.linalg.LinAlgError if it cannot be factored."""
    moments = model.assemble_full_moments(params, pattern)
    r = np.asarray(z, float).transpose(1, 2, 0).ravel() - moments.mean
    chol = np.linalg.cholesky(moments.cov)
    white = solve_triangular(chol, r, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (r.size * model.LOG2PI + logdet + float(white @ white))


def dense_mixture_loglik(params, z):
    """The full mixture log likelihood, one dense factorization per pattern."""
    T = z.shape[1] + 1
    terms = [pat.log_weight(params.p) + dense_log_density(params, z, pat)
             for pat in model.enumerate_patterns(T)]
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _disagree(got, want):
    return not abs(got - want) <= LOGLIK_RTOL * max(1.0, abs(want))


def check_fit_full(result, panel):
    """Test scale: the reported log likelihood equals the dense mixture."""
    z = improvement_tensor(panel).z
    try:
        want = dense_mixture_loglik(result.params, z)
    except np.linalg.LinAlgError:
        return ["oracle cannot factor the covariance at the fitted point"]
    if _disagree(result.loglik, want):
        return [f"reported loglik {result.loglik:.6f}, oracle {want:.6f}"]
    return []


def check_fit_top_pattern(result, panel):
    """Paper scale: the reported log likelihood is the engine's value at the
    fitted point, and the engine's density for the pattern of highest
    responsibility equals the dense oracle's."""
    z = improvement_tensor(panel).z
    ll, parts = model.mixture_loglik(result.params, z, return_parts=True)
    if _disagree(result.loglik, ll):
        return [f"reported loglik {result.loglik:.6f}, engine {ll:.6f}"]
    k = int(np.argmax(parts["responsibilities"]))
    pattern = parts["patterns"][k]
    try:
        want = dense_log_density(result.params, z, pattern)
    except np.linalg.LinAlgError:
        return [f"oracle cannot factor pattern {pattern.t_jump}"]
    got = float(parts["log_densities"][k])
    if _disagree(got, want):
        return [f"pattern {pattern.t_jump}: engine {got:.6f}, oracle {want:.6f}"]
    return []


def check_ensemble_roundtrip(loaded, simulated):
    """load_ensemble must give back the simulated array bit for bit."""
    a, b = loaded.log_rates, simulated.log_rates
    if a.shape != b.shape:
        return [f"ensemble shape {a.shape} != {b.shape}"]
    bad = int(np.count_nonzero(a != b))
    if bad:
        return [f"{bad} ensemble cells differ after export and load"]
    return []


def check_hedge_json(doc, ensemble, midpoints):
    """hedge.json equals the library's hedge on the same ensemble."""
    surv = projection.survival_curves(ensemble, actuarial.DEFAULT_ANNUITY.issue_age,
                                      midpoints)
    hr = actuarial.optimal_hedge(actuarial.value_annuity(surv),
                                 actuarial.value_insurance(surv))
    want = {"weight": hr.weight, "weight_raw": hr.weight_raw,
            **{f"portfolio.{k}": v for k, v in hr.portfolio_measures.items()}}
    got = {"weight": doc["weight"], "weight_raw": doc["weight_raw"],
           **{f"portfolio.{k}": v for k, v in doc["portfolio"].items()}}
    return [f"hedge.json {k} = {got.get(k)!r}, library {v!r}"
            for k, v in want.items()
            if k not in got or not math.isclose(got[k], v, rel_tol=HEDGE_RTOL,
                                                abs_tol=1e-12)]


def check_unit_and_weights(surv, hedge):
    """At rate 0 the insurance PV plus survival to term is exactly one unit
    per path, and the hedge weight lies in [0, 1]."""
    out = []
    spec = ProductSpec("insurance", issue_age=actuarial.DEFAULT_INSURANCE.issue_age,
                       deferral=0, term=actuarial.DEFAULT_INSURANCE.term, rate=0.0)
    ins = actuarial.value_insurance(surv, spec)
    gap = np.max(np.abs(ins.values / ins.face + surv[:, spec.term - 1] - 1.0))
    if not gap <= UNIT_ATOL:
        out.append(f"insurance PV + survival misses 1 by {gap:.3e}")
    if not 0.0 <= hedge.weight <= 1.0:
        out.append(f"hedge weight {hedge.weight} outside [0, 1]")
    return out


def reference_survival(log_rates, issue_age, midpoints):
    """Cohort survival of each path, one age and one year at a time.

    log_rates: (P, H, X, C).  In year t the cohort is aged issue_age + t - 1;
    each cause's band log rates are interpolated by a natural cubic spline
    through the band midpoints, extended linearly beyond them, and the cause
    hazards are summed."""
    midpoints = np.asarray(midpoints, float)
    P, H = log_rates.shape[:2]
    out = np.empty((P, H))
    for p in range(P):
        cum = 0.0
        for t in range(H):
            age = issue_age + t
            # one spline per cause: the columns of the (X, C) band log rates
            cs = CubicSpline(midpoints, log_rates[p, t], bc_type="natural")
            end = midpoints[0] if age < midpoints[0] else midpoints[-1]
            if midpoints[0] <= age <= midpoints[-1]:
                lm = cs(age)
            else:
                lm = cs(end) + cs(end, 1) * (age - end)
            for v in lm:
                cum += math.exp(float(v))
            out[p, t] = math.exp(-cum)
    return out


def check_survival_reference(log_rates, surv, issue_age, midpoints):
    """survival_curves on a few kept paths equals the scalar reference."""
    want = reference_survival(log_rates, issue_age, midpoints)
    if surv.shape != want.shape:
        return [f"survival shape {surv.shape} != {want.shape}"]
    bad = int(np.count_nonzero(~np.isclose(surv, want, rtol=REF_RTOL, atol=1e-300)))
    if bad:
        return [f"{bad} survival values differ from the scalar reference"]
    return []


def _reference_pvs(surv):
    """Annuity and insurance PVs of the default products, scaled to mean 100."""
    ann, ins = actuarial.DEFAULT_ANNUITY, actuarial.DEFAULT_INSURANCE
    a = sum(surv[:, t - 1] * (1.0 + ann.rate) ** -t
            for t in range(ann.deferral + 1, ann.deferral + ann.term + 1))
    prev = np.ones(surv.shape[0])
    i = np.zeros(surv.shape[0])
    for t in range(1, ins.term + 1):
        i += (prev - surv[:, t - 1]) * (1.0 + ins.rate) ** -t
        prev = surv[:, t - 1]
    return 100.0 * a / a.mean(), 100.0 * i / i.mean()


def check_hedge_closed_form(surv, hedge):
    """The hedge weight is (Var I - Cov) / (Var A + Var I - 2 Cov) of the
    PVs recomputed from surv, clamped to [0, 1], and the portfolio is the
    weighted mix of the two books."""
    a, i = _reference_pvs(surv)
    da, di = a - a.mean(), i - i.mean()
    va, vi, cov = float(da @ da), float(di @ di), float(da @ di)
    w_raw = (vi - cov) / (va + vi - 2.0 * cov)
    w = min(max(w_raw, 0.0), 1.0)
    out = []
    if not math.isclose(hedge.weight_raw, w_raw, rel_tol=REF_RTOL, abs_tol=1e-12):
        out.append(f"hedge weight_raw {hedge.weight_raw!r}, closed form {w_raw!r}")
    if not math.isclose(hedge.weight, w, rel_tol=REF_RTOL, abs_tol=1e-12):
        out.append(f"hedge weight {hedge.weight!r}, closed form {w!r}")
    port = np.asarray(hedge.portfolio.values, float)
    if port.shape != a.shape or not np.allclose(port, w * a + (1.0 - w) * i,
                                                rtol=REF_RTOL, atol=1e-9):
        out.append("hedge portfolio is not the weighted mix of the two books")
    return out
