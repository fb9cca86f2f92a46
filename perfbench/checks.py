"""Checks every output of a job against the oracle, after the timed loop.

Each output array is one check: its normwise relative error against the
reference, and the known-defect class it falls in, if any. A known-defect
class is an input class where the library's algorithm has no accuracy
guarantee at the tolerance, decided from the inputs alone before any
output is seen:

* ``derivative k>=K``: derivative_eval's alternating binomial sum amplifies
  rounding by C(k, k//2); K is the first k where that times 2**-52 exceeds
  the tolerance.
* ``k=inf ill-conditioned``: the k = inf solve at a degree where the LU
  forward-error bound kappa_1(A) * gamma_3m (m = n - 1 unknowns,
  gamma_j = j u / (1 - j u), u = 2**-53; Higham, Accuracy and Stability of
  Numerical Algorithms, ch. 9), with the exact condition number of the
  interior system, exceeds the tolerance. That bound is also the class's
  a-priori error bound: an output beyond it is not excused.
* ``q>1``: for q > 1 the q-Bernstein basis changes sign on [0, 1], so the
  evaluation is no longer a convex combination and cancels.

The timed job streams stay outside these classes; the known-defect probe
(jobs.DEFECT_PROBES) runs inside them. A probe miss in a class, within the
class's bound where it has one, is excused; any other miss marks the run
incorrect.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

import oracle as O
from jobs import COARSE_GRID, DENSE_GRID, GENERALIZED_POINTS, TABLE_N, Subinterval, parse_k
from iterbern import INFINITY, registry_lookup


@dataclass
class Checked:
    label: str
    rel_err: float
    defect: str | None = None
    bound: float = math.inf  # the defect class's a-priori error bound

    @property
    def ok(self) -> bool:
        return self.rel_err <= O.TOLERANCE

    @property
    def excused(self) -> bool:
        """A miss in a known-defect class, within the class's bound."""
        return self.defect is not None and self.rel_err <= self.bound


def read_report(path: str) -> tuple[dict, dict]:
    """(metadata, columns) of a CSV written by iterbern.cli.write_csv."""
    meta, lines = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                lines.append(line)
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return meta, {name: [row[i] for row in body] for i, name in enumerate(header)}


class Checker:
    def __init__(self):
        self.bern = O.BernsteinOracle()
        self.szasz = O.SzaszOracle()

    # ----------------------------------------------------- known-defect classes

    def _inf_class(self, n: int) -> dict:
        ju = 3 * (n - 1) * 2.0**-53
        bound = self.bern.condition(n) * ju / (1 - ju)
        return {"defect": "k=inf ill-conditioned", "bound": bound} if bound > O.TOLERANCE else {}

    @staticmethod
    def _deriv_class(k: int) -> dict:
        return {"defect": f"derivative k>={O.DERIVATIVE_DEFECT_K}"} if k >= O.DERIVATIVE_DEFECT_K else {}

    @staticmethod
    def _q_class(q: float) -> dict:
        return {"defect": "q>1"} if q > 1.0 else {}

    # ------------------------------------------------------------- references

    def _classical(self, c, k, kind, values, points, r=0) -> Checked:
        """Check values of the approximant with fixed-point coefficients c."""
        n = len(c) - 1
        if kind == "eval":
            ref = self.bern.evaluate(c, points)
        elif kind == "integral":
            ref = self.bern.integral(c, points)
        else:
            ref = self.bern.derivative(c, r, points)
        defect = self._inf_class(n) if k == INFINITY else (self._deriv_class(k) if r else {})
        label = f"{kind} n={n} k={k}" + (f" r={r}" if r else "")
        return Checked(label, O.rel_error_fixed(values, ref), **defect)

    def _quad(self, fn, a: float, b: float, n: int, k, value: float) -> Checked:
        c = self.bern.coefficients_fx(O.quadrature_samples(fn, n, a, b), k)
        ref = np.array([sum(c) // (n + 1)], dtype=object)
        defect = self._inf_class(n) if k == INFINITY else {}
        return Checked(f"quadrature n={n} k={k}", O.rel_error_fixed([value], ref), **defect)

    def _szasz(self, fn, n, x_max, k, values, points) -> Checked:
        ref = self.szasz.values(fn, n, x_max, k, points)
        return Checked(f"szasz n={n} x_max={x_max:.3g} k={k}", O.rel_error_ld(values, ref))

    def _qbern(self, fn, q, n, k, values, points) -> Checked:
        qo = O.QOracle(q, n)
        c = qo.coefficients([float(fn(x)) for x in qo.node_floats()], k)
        label = f"qbernstein q={q:.3f} n={n} k={k}"
        return Checked(label, O.rel_error_fixed(values, qo.evaluate(c, points)), **self._q_class(q))

    # ------------------------------------------------------------------ jobs

    def check(self, spec: dict, out: dict) -> list[Checked]:
        return getattr(self, "_check_" + spec["kind"])(spec, out)

    def _check_grid(self, spec, out):
        samples = O.node_samples(registry_lookup(spec["fn"]), spec["n"])
        coeffs = {k: self.bern.coefficients(samples, k) for k in {*spec["ks"], *spec["deriv_ks"]}}
        checks = []
        for key, values in out.items():
            kind, k = key[0], key[1]
            points = COARSE_GRID if kind == "deriv" else DENSE_GRID
            r = key[2] if kind == "deriv" else 0
            checks.append(self._classical(coeffs[k], k, kind, values, points, r))
        return checks

    def _check_coef(self, spec, out):
        g = Subinterval(registry_lookup(spec["fn"]), spec["a"], spec["b"])
        n, k = spec["n"], spec["k"]
        ref = self.bern.coefficients(O.node_samples(g, n), k)
        defect = self._inf_class(n) if k == INFINITY else {}
        return [Checked(f"coefficients n={n} k={k}", O.rel_error_fixed(out["coeffs"], ref), **defect)]

    def _check_quad(self, spec, out):
        fn = registry_lookup(spec["fn"])
        return [self._quad(fn, spec["a"], spec["b"], spec["n"], spec["k"], out["value"])]

    def _check_szasz(self, spec, out):
        points = np.linspace(0.0, spec["x_max"], GENERALIZED_POINTS)
        fn = registry_lookup(spec["fn"])
        return [self._szasz(fn, spec["n"], spec["x_max"], spec["k"], out["values"], points)]

    def _check_qbern(self, spec, out):
        points = np.linspace(0.0, 1.0, GENERALIZED_POINTS)
        fn = registry_lookup(spec["fn"])
        return [self._qbern(fn, spec["q"], spec["n"], spec["k"], out["values"], points)]

    def _check_cli(self, spec, out):
        cmd = spec["cmd"]
        if cmd == "integrate":
            fn = registry_lookup(spec["fn"])
            value = float(out["stdout"].strip())
            return [self._quad(fn, spec["a"], spec["b"], spec["n"], parse_k(spec["ks"][0]), value)]
        meta, cols = read_report(out["csv"])
        out["csv_bytes"] = os.path.getsize(out["csv"])

        def floats(name):
            return [float(v) for v in cols[name]]

        if cmd == "table":
            n = TABLE_N[spec["table"]]
            return [
                self._quad(registry_lookup(name), 0.0, 1.0, n, parse_k(k), float(v))
                for name, k, v in zip(cols["integrand"], cols["k"], cols["computed"])
            ]
        fn, n = registry_lookup(spec["fn"]), spec["n"]
        if cmd in ("approx", "derivative"):
            samples = O.node_samples(fn, n)
            t, r = floats("t"), spec.get("r", 0)
            column = "approx_k{}" if cmd == "approx" else f"d{r}_k{{}}"
            kind = "eval" if cmd == "approx" else "deriv"
            return [
                self._classical(self.bern.coefficients(samples, parse_k(k)), parse_k(k), kind,
                                floats(column.format(k)), t, r)
                for k in spec["ks"]
            ]
        if cmd == "szasz":
            out["M"] = int(meta["M"])
            x = floats("x")
            return [
                self._szasz(fn, n, spec["x_max"], k, floats(f"approx_k{k}"), x) for k in spec["ks"]
            ]
        t = floats("t")
        return [self._qbern(fn, spec["q"], n, k, floats(f"approx_k{k}"), t) for k in spec["ks"]]
