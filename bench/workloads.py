"""The three library workloads: inputs, one operation, and its check.

Each workload builds its inputs from the seed (``build``), runs one
operation on one input (``op``, the only timed part), reduces the result
to a small record (``record``) and later compares that record with the
independent reference in ``oracle`` (``check``). A check returns a list of
(code, detail) failures; codes listed in ``KNOWN_DEFECTS`` name defects of
the package that the benchmark keeps visible on purpose.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle
from tracing import NullTracer
from shockpgf import families, measures, pgf_core, sdfr_analysis, shock_model

KNOWN_DEFECTS = {
    "survival.poisson_underflow":
        "shock_model.survival starts the Poisson weights at exp(-lam*t), which is "
        "subnormal past lam*t ~ 708 and zero past ~745",
    "cli.version_metadata":
        "--version reads installed package metadata, so it exits 1 from a plain checkout",
}

VERDICT = {"unit": "sdfr_support_in_unit", "mid": "candidate_mass_in_1_2",
           "stress": "candidate_mass_in_1_2", "two": "not_pgf_mass_at_or_beyond_2"}

STRESS_ALPHAS = ("1/7", "1/9", "1/5", "1/4", "2/9")
STRESS_BETAS = ("2/3", "1/2", "3/5", "2/5", "3/4")


def _dumps(q) -> str:
    return json.dumps(q.to_json_dict())


def _parse(tr, doc: str):
    with tr.span("bench.glue"):
        data = json.loads(doc)
    return tr.call("measures.from_json_dict", measures.MixingDistribution.from_json_dict, data)


def _gen(tr, fn, rng):
    return tr.call("families.generate", fn, rng)


def _stress_grid(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """n (alpha, beta) pairs from the rational grid, (1/7, 2/3) first.

    Only pairs with beta * alpha * (3 + 2 alpha) <= 1 - beta are kept: with
    alpha < 2/7 that keeps the family's tails decreasing at every order.
    """
    grid = [(a, b) for a in STRESS_ALPHAS for b in STRESS_BETAS
            if Fraction(b) * Fraction(a) * (3 + 2 * Fraction(a)) <= 1 - Fraction(b)][1:]
    rng.shuffle(grid)
    return [("1/7", "2/3")] + [grid[i % len(grid)] for i in range(n - 1)]


# ------------------------------------------------------------- exact-verdict

class ExactVerdict:
    """Tails of one law and their CM verdict, in exact arithmetic.

    The sizes are the ones the package's own users and tests use. Every
    50 operations:

    - 12 unit laws at (K, J) = (40, 12) and 12 mid-mass laws at (80, 40),
      the two halves of acceptance criterion 3 (also tests/test_families);
    - 15 laws at (60, 12), the ``cm-check`` CLI default, 5 per regime;
    - 4 mass-beyond-two laws at K = 50, criterion 4's order, with J = 12;
    - 4 stress-family members at (200, 12), the ``counterexample`` CLI
      default;
    - the stress family's (1/7, 2/3) member at (400, 40) and at (1000, 12),
      and one unit law at (400, 40): a full J = 40 table.

    The (400, 40) unit law is the same in every run: the first law that
    ``random_unit_support`` draws from generator seed 4 (an atom and a
    segment, 4093-bit denominators). Random unit laws at that size cost
    0.2 to 1.3 s each and would hold a third of a run's time, so which of
    them a seed drew would set ``verdicts_per_s`` and ``peak_rss_mb``.
    """

    name = "exact-verdict"
    SCHEDULE = ((("unit", 40, 12),) * 12 + (("mid", 80, 40),) * 12
                + (("unit", 60, 12), ("mid", 60, 12), ("two", 60, 12)) * 5
                + (("two", 50, 12),) * 4 + (("stress", 200, 12),) * 4
                + (("canonical", 400, 40), ("canonical", 1000, 12), ("fixed-unit", 400, 40)))
    period = len(SCHEDULE)
    trace_periods = 1
    pool = 1000

    def build(self, seed: int, tr):
        rng = random.Random(seed)
        gens = {"unit": families.random_unit_support, "mid": families.random_mid_mass,
                "two": families.random_with_mass_beyond_two}
        stress = iter(_stress_grid(rng, self.pool))
        items = []
        for i in range(self.pool):
            regime, K, J = self.SCHEDULE[i % self.period]
            if regime in ("stress", "canonical"):
                alpha, beta = next(stress) if regime == "stress" else ("1/7", "2/3")
                p = pgf_core.counterexample_params(alpha, beta)
                doc = _dumps(pgf_core.counterexample_Q(p))
                regime, extra = "stress", (alpha, beta)
            elif regime == "fixed-unit":
                doc = _dumps(_gen(tr, families.random_unit_support, random.Random(4)))
                regime, extra = "unit", None
            else:
                doc = _dumps(_gen(tr, gens[regime], rng))
                extra = None
            cells = [(j, rng.randint(0, K - j)) for j in (rng.randint(1, J - 1), J)]
            if extra == ("1/7", "2/3") and K >= 3:
                cells.append((2, 1))
            items.append({"regime": regime, "K": K, "J": J, "doc": doc, "stress": extra,
                          "cells": cells})
        return items

    def op(self, tr, it):
        q = _parse(tr, it["doc"])
        cls = tr.call("sdfr_analysis.classify_support", sdfr_analysis.classify_support, q)
        if it["stress"]:
            p = tr.call("pgf_core.counterexample_params", pgf_core.counterexample_params,
                        *it["stress"])
            t = tr.call("pgf_core.counterexample_tail_sequence",
                        pgf_core.counterexample_tail_sequence, p, it["K"], counts=tail_counts)
        else:
            t = tr.call("pgf_core.tail_sequence", pgf_core.tail_sequence, q, it["K"],
                        counts=tail_counts)
        valid, _ = tr.call("sdfr_analysis.tail_validity", sdfr_analysis.tail_validity, t)
        n, J = len(t.values), it["J"]
        cm = tr.call("sdfr_analysis.is_completely_monotone", sdfr_analysis.is_completely_monotone,
                     t, J, counts=lambda r: _cm_counts(r, n, J))
        return cls.verdict, t, valid, cm

    def record(self, it, raw):
        verdict, t, valid, cm = raw
        cells = [(j, k, str(_table_cell(t, j, k))) for j, k in it["cells"]]
        return {"verdict": verdict, "digest": oracle.digest(t.values), "valid": valid,
                "cm": [cm[0], list(cm[1]) if cm[1] else None], "cells": cells}

    def reference(self, it):
        law = oracle.Law(json.loads(it["doc"]))
        K, J = it["K"], it["J"]
        if it["stress"]:
            tails = oracle.stress_tails(*map(Fraction, it["stress"]), K)
        else:
            tails = oracle.hausdorff_tails(law, K)
        # unit support is CM by the theorem; elsewhere the first violation is scanned
        fv = None if it["regime"] == "unit" else oracle.first_violation(tails, J)
        return {"digest": oracle.digest(tails), "valid": oracle.tail_is_valid(tails),
                "cm": [fv is None, list(fv) if fv else None],
                "cells": {(j, k): oracle.moment_cell(law, j, k) for j, k in it["cells"]}}

    def check(self, it, rec, ref):
        bad = []
        regime = it["regime"]
        if rec["verdict"] != VERDICT[regime]:
            bad.append(("verdict.classify", f"{rec['verdict']} for a {regime} law"))
        if rec["digest"] != ref["digest"]:
            bad.append(("tails.mismatch", f"K={it['K']}"))
        if rec["valid"] != (regime != "two") or ref["valid"] != (regime != "two"):
            bad.append(("tails.validity", f"valid={rec['valid']} for a {regime} law"))
        if rec["cm"] != ref["cm"]:
            bad.append(("cm.verdict", f"{rec['cm']} != {ref['cm']}"))
        if regime in ("mid", "stress") and ref["cm"][0]:
            bad.append(("cm.regime", f"no violation within J={it['J']} for a {regime} law"))
        for j, k, v in rec["cells"]:
            if Fraction(v) != ref["cells"][(j, k)]:
                bad.append(("cells.moment", f"cell ({j}, {k})"))
        if it["stress"] == ("1/7", "2/3"):
            if rec["cm"] != [False, [2, 1]] or Fraction(rec["cells"][-1][2]) != Fraction(-121, 4116):
                bad.append(("stress.reference", "(1/7, 2/3) must fail at (2, 1) = -121/4116"))
        return bad


def _table_cell(t, j: int, k: int):
    """Cell (j, k) of the package's difference table of the returned tails.

    Row j at k depends only on u_k..u_{k+j}, so the table of that window
    holds the cell at (j, 0); this keeps the check cheap next to the
    operation while it still runs the package's own differencing.
    """
    window = pgf_core.TailSequence.from_values(t.values[k:k + j + 1])
    return sdfr_analysis.difference_table(window, j).entries[j][0]


def tail_counts(t):
    bits = max((v.denominator.bit_length() for v in t.values if isinstance(v, Fraction)),
               default=0)
    return {"entries": len(t.values), "denominator_bits_max": bits}


def _cm_counts(result, n: int, J: int):
    cells = sum(n - j for j in range(J + 1))
    fv = result[1]
    needed = cells if fv is None else sum(n - j for j in range(fv[0])) + fv[1] + 1
    return {"cells": cells, "cells_needed": needed}


# ----------------------------------------------------------- float-analytics

class FloatAnalytics:
    """One law's analytic report: p.g.f., transforms, bounds, survival.

    Laws are unit-support and mid-mass laws from ``families`` (each also
    as a float-valued copy) and stress-family members. Tails are built
    by the benchmark and handed over, exact and as floats; a float-valued
    law gets float tails only. On float tails, stress laws also carry
    survival points out to lam*t = 740 (every other stress law) or 750
    (the rest), so a fix of either underflow symptom alone shows.
    """

    name = "float-analytics"
    Z = tuple(k / 10 for k in range(1, 10))
    S = (0.25, 0.5, 1.0, 2.0, 4.0)
    T = (0.5, 1.0, 2.0, 4.0, 8.0)
    T_STRESS = (T + (100.0, 500.0, 740.0), T + (100.0, 500.0, 750.0))
    LAMS = (Fraction(1, 2), Fraction(1), Fraction(2))
    DELTA, J_SKEL, J_CM = 0.5, 10, 12
    K, K_STRESS = 120, 1100
    period = 48
    trace_periods = 2
    pool = 384

    def build(self, seed: int, tr):
        rng = random.Random(seed)
        stress = iter(_stress_grid(rng, self.pool // 3))
        items = []
        for i in range(self.pool):
            # floats, stress laws and exact laws a third each: the median falls
            # among the stress reports, whose cost varies least from law to law
            kind = ("unit", "unit-float", "stress", "mid", "mid-float", "stress")[i % 6]
            regime = kind.split("-")[0]
            if regime == "stress":
                alpha, beta = next(stress)
                q = pgf_core.counterexample_Q(pgf_core.counterexample_params(alpha, beta))
                lam, grid, extra = Fraction(1), self.T_STRESS[i % 6 == 5], (alpha, beta)
            else:
                gen = families.random_unit_support if regime == "unit" else families.random_mid_mass
                q = _gen(tr, gen, rng)
                lam, grid, extra = self.LAMS[rng.randrange(3)], self.T, None
            exact_doc = q.to_json_dict()
            doc = _float_doc(exact_doc) if kind.endswith("float") else exact_doc
            items.append({"regime": regime, "doc": json.dumps(doc), "stress": extra,
                          "lam": lam, "t": grid, "exact_doc": exact_doc,
                          "variants": ("float",) if kind.endswith("float") else ("exact", "float")})
        for it in items:
            with tr.span("setup"):
                it["q"] = _parse(tr, it["doc"])
        return items

    def prepare(self, it):
        """Hand the benchmark's own tails to an input before its first use."""
        if "params" in it:
            return
        if it["stress"]:
            tails = oracle.stress_tails(*map(Fraction, it["stress"]), self.K_STRESS)
        else:
            tails = oracle.hausdorff_tails(oracle.Law(it["exact_doc"]), self.K)
        # K = 120 covers every lam*t <= 39: the skeleton and the short grid
        short = tails[:self.K + 1]
        it["exact"] = pgf_core.TailSequence.from_values(short)
        it["float"] = pgf_core.TailSequence.from_values(float(v) for v in tails)
        it["float_short"] = pgf_core.TailSequence.from_values(float(v) for v in short)
        it["params"] = shock_model.ShockModelParams(lam=it["lam"])

    def op(self, tr, it):
        q, lam, c = it["q"], it["lam"], tr.call
        out = {
            "pgf": [c("pgf_core.pgf_eval", pgf_core.pgf_eval, q, z) for z in self.Z],
            "rgf": [c("pgf_core.resistance_gf", pgf_core.resistance_gf, q, z) for z in self.Z],
            "bounds": [c("sdfr_analysis.pgf_bounds", sdfr_analysis.pgf_bounds, q, z)
                       for z in self.Z],
            "laplace": [c("shock_model.laplace", shock_model.laplace, q, lam, s) for s in self.S],
            "lob": [c("sdfr_analysis.laplace_order_bounds", sdfr_analysis.laplace_order_bounds,
                      q, lam, s) for s in self.S],
            "es": c("sdfr_analysis.expected_shocks", sdfr_analysis.expected_shocks, q),
        }
        if it["regime"] == "unit":
            g = c("shock_model.rate_mixture", shock_model.rate_mixture, q, lam)
            out["ems"] = [c("shock_model.exp_mixture_survival", shock_model.exp_mixture_survival,
                            g, t) for t in it["t"]]
        for var in it["variants"]:
            grid = it["t"] if var == "float" else self.T
            out["surv_" + var] = [c(f"shock_model.survival.{var}", shock_model.survival,
                                    it[var], it["params"], t) for t in grid]
            short = it["float_short"] if var == "float" else it["exact"]
            out["skel_" + var] = c(f"shock_model.sdfr_skeleton_check.{var}",
                                   shock_model.sdfr_skeleton_check, short, it["params"],
                                   self.DELTA, self.J_SKEL)
        n = len(it["float_short"].values)
        out["cm_float"] = c("sdfr_analysis.is_completely_monotone",
                            sdfr_analysis.is_completely_monotone, it["float_short"], self.J_CM,
                            1e-9, counts=lambda r: _cm_counts(r, n, self.J_CM))
        return out

    def record(self, it, raw):
        f = float
        rec = {k: [f(v) for v in raw[k]] for k in ("pgf", "rgf", "laplace", "surv_exact",
                                                    "surv_float", "ems") if k in raw}
        rec["bounds"] = [(f(b.lower), f(b.phi), f(b.upper)) for b in raw["bounds"]]
        rec["lob"] = [(f(b.lower), f(b.value), f(b.upper)) for b in raw["lob"]]
        rec["es"] = f(raw["es"])
        for k in ("skel_exact", "skel_float", "cm_float"):
            if k in raw:
                rec[k] = [raw[k][0], list(raw[k][1]) if raw[k][1] else None]
        return rec

    def reference(self, it):
        law = oracle.Law(json.loads(it["doc"]))
        lam = float(it["lam"])
        stress = tuple(map(Fraction, it["stress"])) if it["stress"] else None
        u = oracle.float_tail_fn(law, stress)
        ref = {
            "pgf": [oracle.pgf_ref(law, z) for z in self.Z],
            "laplace": [oracle.pgf_ref(law, lam / (lam + s)) for s in self.S],
            "es": oracle.mean_shocks_ref(law),
            "surv": [oracle.survival_ref(u, lam * t) for t in it["t"]],
        }
        if it["regime"] == "unit":
            ref["ems"] = [oracle.exp_mixture_ref(law, lam, t) for t in it["t"]]
        skel = [oracle.survival_ref(u, lam * n * self.DELTA) for n in range(40)]
        fv = oracle.first_violation(skel, self.J_SKEL, 1e-9 * max(skel))
        ref["skel"] = [fv is None, list(fv) if fv else None]
        # unit support is CM by the theorem; elsewhere the exact tails are scanned
        if it["regime"] == "unit":
            fv = None
        else:
            tails = (oracle.stress_tails(*stress, self.K) if stress
                     else oracle.hausdorff_tails(oracle.Law(it["exact_doc"]), self.K))
            fv = oracle.first_violation(tails, self.J_CM, Fraction(1e-9))
        ref["cm"] = [fv is None, list(fv) if fv else None]
        return ref

    def check(self, it, rec, ref):
        bad = []
        tol = oracle.QUAD_TOL
        for i, z in enumerate(self.Z):
            phi = ref["pgf"][i]
            if not oracle.close(rec["pgf"][i], phi, tol):
                bad.append(("pgf.quad", f"z={z}: {rec['pgf'][i]!r} vs {phi!r}"))
            if not oracle.close(rec["rgf"][i], (1 - phi) / (1 - z), tol / (1 - z)):
                bad.append(("resistance_gf.quad", f"z={z}"))
            lo, mid, hi = rec["bounds"][i]
            if not (lo <= mid + 1e-12 and mid <= hi + 1e-12 and oracle.close(mid, phi, tol)):
                bad.append(("pgf_bounds.order", f"z={z}: {lo!r} <= {mid!r} <= {hi!r}"))
        for i, s in enumerate(self.S):
            want = ref["laplace"][i]
            lo, mid, hi = rec["lob"][i]
            if not oracle.close(rec["laplace"][i], want, tol):
                bad.append(("laplace.quad", f"s={s}"))
            if not (lo <= mid + 1e-12 and mid <= hi + 1e-12 and oracle.close(mid, want, tol)):
                bad.append(("laplace_order_bounds.order", f"s={s}"))
        if not oracle.close(rec["es"], ref["es"], tol, 1e-9):
            bad.append(("expected_shocks.quad", f"{rec['es']!r} vs {ref['es']!r}"))
        for var in it["variants"]:
            for t, got, want in zip(it["t"], rec["surv_" + var], ref["surv"]):
                if not oracle.close(got, want, oracle.SURV_ABS, oracle.SURV_REL):
                    mu = float(it["lam"]) * t
                    code = ("survival.poisson_underflow" if oracle.is_underflow_symptom(got, want, mu)
                            else "survival.series")
                    bad.append((code, f"{var} tails, lam*t={mu:g}: {got!r} vs {want!r}"))
            if rec["skel_" + var] != ref["skel"]:
                bad.append(("skeleton.verdict", f"{var}: {rec['skel_' + var]} vs {ref['skel']}"))
        for t, got, want in zip(it["t"], rec.get("ems", ()), ref.get("ems", ())):
            if not (oracle.close(got, want, tol) and oracle.close(got, ref["surv"][it["t"].index(t)],
                                                                  1e-8)):
                bad.append(("exp_mixture_survival", f"t={t}: {got!r} vs {want!r}"))
        if rec["cm_float"] != ref["cm"]:
            bad.append(("cm.float", f"{rec['cm_float']} vs {ref['cm']}"))
        return bad


def _float_doc(doc: dict) -> dict:
    """The same law with every number as a float."""
    def fl(v):
        return float(Fraction(v))

    return {"atoms": [{k: fl(v) for k, v in a.items()} for a in doc["atoms"]],
            "segments": [{k: fl(v) for k, v in s.items()} for s in doc["segments"]]}


# --------------------------------------------------------------- monte-carlo

class MonteCarlo:
    """One seeded simulator call.

    Failure times run on float-valued laws with dyadic numbers, so their
    float tails are exact at k = 0: a light-tailed law with tail model
    ``none``, a unit law with density down to 0 under ``geometric``, and a
    dyadic stress law under ``harmonic``. De Finetti runs on exact unit
    laws from ``families``. Every repeated call, and one extra call of each
    input of the first period, must return the same CSV.
    """

    name = "monte-carlo"
    T = (0.5, 1.0, 2.0, 4.0)
    Z = (0.25, 0.5, 0.75)
    # Sizes are ordered so that the median falls inside the 1e5 calls and the
    # 90th percentile inside the 1e6 ones, whose kinds overlap in cost.
    KINDS = (("definetti", 10_000), ("geometric", 10_000),
             ("harmonic", 100_000), ("none", 100_000), ("geometric", 100_000),
             ("definetti", 100_000), ("definetti", 300_000),
             ("harmonic", 1_000_000), ("none", 1_000_000), ("none", 1_000_000))
    period = 10
    trace_periods = 3
    pool = 100

    def build(self, seed: int, tr):
        rng = random.Random(seed)
        items = []
        for i in range(self.pool):
            model, n = self.KINDS[i % len(self.KINDS)]
            if model == "definetti":
                doc = _dumps(_gen(tr, families.random_unit_support, rng))
                extra = None
            elif model == "harmonic":
                extra = rng.choice((("1/4", "1/2"), ("1/8", "1/2"), ("1/8", "5/8")))
                a, b = map(Fraction, extra)
                doc = json.dumps(_float_doc({"atoms": [], "segments": [
                    {"lo": 0, "hi": 1, "density": str(1 - b)},
                    {"lo": 1, "hi": str(1 + a), "density": str(b / a)}]}))
            else:
                doc = json.dumps(_float_doc(_dyadic_law(rng, light=model == "none")))
                extra = None
            items.append({"model": model, "n": n, "seed": rng.randrange(2 ** 32),
                          "lam": rng.choice((1.0, 2.0)), "doc": doc, "stress": extra,
                          "repeat": i < self.period})
        for it in items:
            with tr.span("setup"):
                it["q"] = _parse(tr, it["doc"])
                with tr.span("bench.glue"):
                    it["params"] = shock_model.ShockModelParams(lam=it["lam"], time_grid=self.T)
        return items

    def op(self, tr, it):
        count = {"replicates": it["n"]}
        if it["model"] == "definetti":
            return tr.call("shock_model.simulate_de_finetti", shock_model.simulate_de_finetti,
                           it["q"], self.Z, it["n"], it["seed"], counts=lambda r: count)
        return tr.call("shock_model.simulate_failure_times", shock_model.simulate_failure_times,
                       it["q"], it["params"], it["n"], it["seed"], tail_model=it["model"],
                       counts=lambda r: count)

    def record(self, it, raw):
        return {"emp": list(raw.empirical), "ana": list(raw.analytic),
                "csv": hashlib.sha256(raw.to_csv().encode()).hexdigest()}

    def reference(self, it):
        law = oracle.Law(json.loads(it["doc"]))
        # the first period's inputs are also called once more here, untimed
        ref = {"csv": self.record(it, self.op(NullTracer(), it))["csv"]} if it["repeat"] else {}
        if it["model"] == "definetti":
            phi = [oracle.pgf_ref(law, z) for z in self.Z]
            var = [oracle.pgf_ref(law, z * z) - p * p for z, p in zip(self.Z, phi)]
            return {**ref, "ana": phi, "var": var}
        stress = tuple(map(Fraction, it["stress"])) if it["stress"] else None
        u = oracle.float_tail_fn(law, stress)
        surv = [oracle.survival_ref(u, it["lam"] * t) for t in self.T]
        return {**ref, "ana": surv, "var": [s * (1 - s) for s in surv]}

    def check(self, it, rec, ref):
        bad = []
        n = it["n"]
        for i, (e, a) in enumerate(zip(rec["emp"], rec["ana"])):
            want, var = ref["ana"][i], max(ref["var"][i], 0.0)
            if abs(e - want) > oracle.MC_BAND * (var / n) ** 0.5 + 1e-12:
                bad.append(("mc.band", f"{it['model']} point {i}: {e!r} vs {want!r}"))
            if not oracle.close(a, want, oracle.QUAD_TOL):
                bad.append(("mc.analytic", f"{it['model']} point {i}: {a!r} vs {want!r}"))
        first = ref.setdefault("csv", rec["csv"])
        if rec["csv"] != first:
            bad.append(("mc.determinism", f"repeated call gave different CSV ({it['model']})"))
        return bad


def _dyadic_law(rng: random.Random, light: bool) -> dict:
    """Exact law on (0, 1] whose numbers are dyadic, so floats hold them exactly.

    A light law keeps its mass on [1/4, 1]; otherwise its segment starts at 0.
    """
    lo = Fraction(1, 4) if light else Fraction(0)
    width = Fraction(1, rng.choice((2, 4, 8)))
    w_seg = Fraction(rng.choice((1, 2, 3)), 4)
    y = lo + width + Fraction(rng.randint(1, int((1 - lo - width) * 16) - 1), 16)
    return {"atoms": [{"y": str(y), "p": str((1 - w_seg) / 2)},
                      {"y": "1", "p": str((1 - w_seg) / 2)}],
            "segments": [{"lo": str(lo), "hi": str(lo + width), "density": str(w_seg / width)}]}


WORKLOADS = {w.name: w for w in (ExactVerdict(), FloatAnalytics(), MonteCarlo())}
