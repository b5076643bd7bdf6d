"""The four workloads.  Each is one client in a closed loop: ``setup`` makes
the inputs from the seed, ``op`` runs one operation against the package's
public API and returns its outputs, and ``check`` (run after the timed loop)
returns failure messages and a digest of the numerical results.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
import inputs
from lingermort import actuarial, baselines, cli, estimation, model, panel, projection
from lingermort.panel import improvement_tensor

#: test-scale fits stop after this many BFGS iterations: longer fits of
#: lingermort 0.1.0 reach false optima (1 draw in 8 by iteration 20, none
#: of 52 by iteration 8), and a workload must have no failing operation.
SMALL_MAX_ITER = 8
#: The fit workloads fit fixed draws of the model's randomness, and the seed
#: draws only the Poisson counts (log rates move by about 1e-4).  A fit's
#: work depends on the draw: the SE Hessian costs 2g^2 loglik calls for the
#: g coordinates whose probes succeed, and initialization and line search
#: vary too.  Redrawing the model per seed spread op_s by 19% (fit-small)
#: and 30% (fit-paper) between seeds.  The test-scale draw is the first
#: replication of the acceptance suite's recovery test.
SMALL_MODEL_DRAW = 300
PAPER_MODEL_DRAW = 0
#: the paper-scale full fit is capped; a converged one takes over an hour
PAPER_MAX_ITER = 1
#: pipeline-cli ensembles: paths x years per simulate call (risk measures
#: need 100 paths; the default annuity needs 60 years)
CLI_PATHS, CLI_HORIZON = 100, 60
#: project-scenarios ensembles: paths x years per scenario
PROJ_PATHS, PROJ_HORIZON = 1000, 90
#: paths whose log rates an operation keeps, for the scalar survival check
KEPT_PATHS = [0, PROJ_PATHS - 1]
ISSUE_AGE = actuarial.DEFAULT_ANNUITY.issue_age


def _rng(tag, seed, *rest):
    return np.random.default_rng([tag, seed, *rest])


def _load_via_csv(panel_, path):
    inputs.write_panel_csv(panel_, path)
    return panel.load_canonical_csv(path)


class Workload:
    """``tracer`` (or None) lets an operation open spans around its own
    call sites, such as one CLI command."""

    def __init__(self, tracer=None):
        self.span = (tracer.span if tracer is not None
                     else lambda name: contextlib.nullcontext())


def _fit_digest(res):
    d = {"loglik": res.loglik, "n_iter": res.n_iter, "converged": res.converged}
    if res.se is not None:
        d["se"] = [None if not math.isfinite(v) else v for v in res.se.tolist()]
    return d


class FitSmall(Workload):
    """Full-variant fits with standard errors of one 4x3x30 panel: a fixed
    draw of the model's randomness, with counts drawn from the seed."""

    name = "fit-small"

    def setup(self, workdir, seed):
        drawn = inputs.small_panel(np.random.default_rng(SMALL_MODEL_DRAW),
                                   _rng(1, seed))
        return _load_via_csv(drawn, os.path.join(workdir, "small.csv"))

    def op(self, pn, rep, workdir):
        opts = estimation.FitOptions(variant="full", jump_year=inputs.jump_year(pn),
                                     max_iter=SMALL_MAX_ITER, tol=1e-7)
        return estimation.fit(pn, opts)

    def check(self, pn, res):
        fails = checks.check_fit_full(res, pn)
        z = improvement_tensor(pn).z
        se = np.asarray(res.se if res.se is not None else [np.nan] * res.n_params)
        quality = {"ll_gain": res.loglik - model.mixture_loglik(inputs.SMALL_TRUTH, z),
                   "se_finite_share": float(np.mean(np.isfinite(se)))}
        return fails, _fit_digest(res), quality


class FitPaper(Workload):
    """A capped full fit plus the CC and J1 baselines on one 13x6x30 panel."""

    name = "fit-paper"

    def setup(self, workdir, seed):
        drawn = inputs.paper_panel(_rng(2, PAPER_MODEL_DRAW), _rng(2, seed, 1))
        return _load_via_csv(drawn, os.path.join(workdir, "paper.csv"))

    def op(self, pn, rep, workdir):
        opts = estimation.FitOptions(variant="full", jump_year=inputs.jump_year(pn),
                                     max_iter=PAPER_MAX_ITER, compute_se=False)
        full = estimation.fit(pn, opts)
        return full, baselines.fit_cc(pn), baselines.fit_j1(pn)

    def check(self, pn, out):
        full, cc, j1 = out
        fails = checks.check_fit_top_pattern(full, pn)
        for fit in (cc, j1):
            if not math.isfinite(fit.loglik):
                fails.append(f"{fit.model} loglik is not finite")
        z = improvement_tensor(pn).z
        quality = {"ll_gain": full.loglik - model.mixture_loglik(inputs.PAPER_TRUTH, z)}
        digest = {"full": _fit_digest(full), "cc_loglik": cc.loglik,
                  "j1_loglik": j1.loglik}
        return fails, digest, quality


def _cli(*argv):
    """Run one CLI command in process; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=list(argv), prog_name="lingermort",
                          standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


class PipelineCli(Workload):
    """simulate x2 -> value -> hedge -> whatif through the CLI on a
    paper-scale fit.json written by setup."""

    name = "pipeline-cli"

    def setup(self, workdir, seed):
        pn = _load_via_csv(inputs.paper_panel(_rng(3, seed)),
                           os.path.join(workdir, "paper.csv"))
        fr = inputs.truth_fit_result(pn, inputs.PAPER_TRUTH)
        path = os.path.join(workdir, "fit.json")
        fr.to_json(path)
        return {"fit": fr, "fit_path": path, "seed": seed}

    def op(self, state, rep, workdir):
        d = os.path.join(workdir, f"rep{rep}")
        os.makedirs(d)
        p = lambda name: os.path.join(d, name)  # noqa: E731
        sim_seed = state["seed"] * 1000 + rep
        size = ["--paths", str(CLI_PATHS), "--horizon", str(CLI_HORIZON),
                "--seed", str(sim_seed)]
        codes = {}
        with self.span("cli.simulate"):
            codes["simulate"] = _cli("simulate", "--fit", state["fit_path"],
                                     "--output", p("base.csv.gz"), *size)
            codes["simulate_fm"] = _cli("simulate", "--fit", state["fit_path"],
                                        "--scenario", "frequent_mild",
                                        "--output", p("fm.csv.gz"), *size)
        with self.span("cli.value"):
            codes["value"] = _cli("value", "--ensemble", p("base.csv.gz"),
                                  "--output", p("value.json"), "--product", "annuity")
        with self.span("cli.hedge"):
            codes["hedge"] = _cli("hedge", "--ensemble", p("base.csv.gz"),
                                  "--output", p("hedge.json"))
        with self.span("cli.whatif"):
            codes["whatif"] = _cli("whatif", "--ensemble", f"base={p('base.csv.gz')}",
                                   "--ensemble", f"fm={p('fm.csv.gz')}",
                                   "--output", p("whatif.json"),
                                   "--product", "portfolio")
        return d, sim_seed, codes

    def check(self, state, out):
        d, sim_seed, codes = out
        fails = [f"{cmd} exited {code}" for cmd, code in codes.items() if code != 0]
        if fails:
            return fails, {"exit_codes": codes}, {}
        fr = state["fit"]
        ages = panel.AgeAxis.from_labels(fr.age_labels)
        causes = panel.CauseAxis(tuple(fr.cause_labels))
        ensembles = {}
        for scen, fname in (("baseline", "base.csv.gz"), ("frequent_mild", "fm.csv.gz")):
            want = projection.project(fr, CLI_PATHS, CLI_HORIZON, scenario=scen,
                                      seed=sim_seed, age_axis=ages, cause_axis=causes)
            got = projection.load_ensemble(os.path.join(d, fname))
            fails += checks.check_ensemble_roundtrip(got, want)
            # the loaded array has the simulated values in another memory
            # layout, which changes the summation order of the valuation;
            # the hedge is recomputed from what the CLI read
            ensembles[scen] = got
        docs = {}
        for name in ("value", "hedge", "whatif"):
            with open(os.path.join(d, f"{name}.json"), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        fails += checks.check_hedge_json(docs["hedge"], ensembles["baseline"],
                                         ages.midpoints)
        nbytes = sum(os.path.getsize(os.path.join(d, f))
                     for f in ("base.csv.gz", "fm.csv.gz"))
        digest = {"value": docs["value"]["measures"],
                  "hedge_weight": docs["hedge"]["weight"],
                  "hedge_portfolio": docs["hedge"]["portfolio"],
                  "whatif": {lab: s["measures"]
                             for lab, s in docs["whatif"]["scenarios"].items()},
                  "ensemble_bytes": nbytes}
        return fails, digest, {"ensemble_bytes": nbytes}


class ProjectScenarios(Workload):
    """project -> survival -> value -> hedge for all five scenarios, then the
    what-if report; no file I/O."""

    name = "project-scenarios"

    def setup(self, workdir, seed):
        pn = _load_via_csv(inputs.paper_panel(_rng(4, seed)),
                           os.path.join(workdir, "paper.csv"))
        path = os.path.join(workdir, "fit.json")
        inputs.truth_fit_result(pn, inputs.PAPER_TRUTH).to_json(path)
        return {"fit": estimation.FitResult.from_json(path),
                "ages": pn.age_axis, "causes": pn.cause_axis, "seed": seed}

    def op(self, state, rep, workdir):
        fr, ages = state["fit"], state["ages"]
        sim_seed = state["seed"] * 1000 + rep
        survs, hedges, kept = {}, {}, {}
        for scen in projection.SCENARIO_NAMES:
            ens = projection.project(fr, PROJ_PATHS, PROJ_HORIZON, scenario=scen,
                                     seed=sim_seed, age_axis=ages,
                                     cause_axis=state["causes"])
            surv = projection.survival_curves(ens, ISSUE_AGE, ages.midpoints)
            kept[scen] = ens.log_rates[KEPT_PATHS]
            del ens
            hedges[scen] = actuarial.optimal_hedge(actuarial.value_annuity(surv),
                                                   actuarial.value_insurance(surv))
            survs[scen] = surv
        report = actuarial.whatif_report({s: h.portfolio for s, h in hedges.items()})
        return survs, hedges, kept, report

    def check(self, state, out):
        survs, hedges, kept, report = out
        midpoints = state["ages"].midpoints
        fails = []
        for scen, surv in survs.items():
            found = (checks.check_unit_and_weights(surv, hedges[scen])
                     + checks.check_hedge_closed_form(surv, hedges[scen])
                     + checks.check_survival_reference(kept[scen], surv[KEPT_PATHS],
                                                       ISSUE_AGE, midpoints))
            fails += [f"{scen}: {m}" for m in found]
        digest = {scen: {"weight": h.weight, "portfolio": h.portfolio_measures,
                         "annuity": h.annuity_measures,
                         "insurance": h.insurance_measures}
                  for scen, h in hedges.items()}
        digest["whatif"] = {lab: e["measures"]
                            for lab, e in report["scenarios"].items()}
        return fails, digest, {}


WORKLOADS = {w.name: w for w in (FitSmall, FitPaper, PipelineCli, ProjectScenarios)}
