"""cli: each op is one fresh ``python -m bdalg <group> <verb>`` process.

Arguments are the generated JSON documents, inline or (for a third of the
ops) through ``--json -`` on stdin.  Checks parse the output and compare it
by value, through ``from_json`` and ``==``, with the library's result computed
in this process; byte-level differences in the output do not count.  The
traced run calls the same verbs through ``cli_shim.py``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bdalg import bd_algebra as B
from bdalg import cyclotomic as C
from bdalg import derivations as D
from bdalg import homalg as H
from bdalg import k_invariants as K
from bdalg import odometer_fn as O
from bdalg import profinite as P
from bdalg import supernatural as SN

from gen import CLI_SPECTRUM_GRID

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIM = False
TRACE_IN_SHIM = True
TRACE_ROUNDS = 1  # the traced batch: the first round of the pool


def prepare(task):
    return None


def run(task, _, timed):
    head = [sys.executable, os.path.join(HERE, "cli_shim.py")] if SHIM else [
        sys.executable, "-m", "bdalg"]
    t0 = time.perf_counter()
    proc = timed(subprocess.run, head + task["argv"], input=task["stdin"],
                 capture_output=True, text=True, cwd=ROOT, timeout=120)
    if SHIM:
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0
    return proc.returncode, proc.stdout


def warm_tasks(warm_round: list) -> list:
    return [t for t in warm_round if t["verb"] in ("sn chain", "bd norm")]


def trace_summary(records: list):
    """Sum the shims' span summaries; each shim's stderr ends with its report."""
    from tracing import merge
    summaries, parts = [], []
    extra = {"cli_import_s": 0.0, "cli_process_s": 0.0, "poly_cache_misses": 0}
    for _, _, (rc, out, err, wall), _ in records:
        rep = json.loads(err.strip().splitlines()[-1])
        summaries.append(rep["summary"])
        spans = rep["spans"]
        spans["op"] = [len(parts)] * len(spans["start"])
        parts.append(spans)
        extra["cli_import_s"] += rep["import_s"]
        extra["cli_process_s"] += wall - rep["import_s"] - rep["main_s"]
        extra["poly_cache_misses"] += rep["poly_cache_misses"]
    summary = merge(summaries)
    summary.update(extra)
    return summary, parts


# ---------------------------------------------------------------------------
# checks: the library's own answer, compared by value

def _sn(x):
    return SN.SupernaturalNumber.from_json(x)


def _pi(x):
    return P.ProfiniteInt.from_json(x)


def _cyc(x):
    return C.Cyclo.from_json(x)


def _fn(x):
    return O.LocConstFn.from_json(x)


def _bd(x):
    return B.BDElement.from_json(x)


def _phi(x):
    return K.PhiFn.from_json(x)


def _mat(x):
    return H.IntMatrix.from_json(x)


def _same(parse):
    return lambda doc, want: parse(doc) == want


def _equal(doc, want):
    return doc == want


def _exact_c(doc_c, want):
    """A constant printed either as a rational string or as a cyclotomic value."""
    got = _cyc(doc_c) if isinstance(doc_c, dict) else C.Cyclo.from_rational(Fraction(doc_c))
    return got == want


def _norm(doc, want):
    return (doc["kind"] == want.kind and doc["grid"] == want.grid
            and abs(doc["value"] - want.value) <= 1e-9 * max(1.0, want.value)
            and all(abs(a - b) <= 1e-9 * max(1.0, b) for a, b in zip(doc["window"], want.window)))


def _spectrum(doc, want):
    got = np.array([complex(re, im) for re, im in doc["points"]])
    ref = np.array(want)
    if got.shape != ref.shape:
        return False
    grid = CLI_SPECTRUM_GRID
    got, ref = got.reshape(grid, -1), ref.reshape(grid, -1)
    return all(np.allclose((got ** p).sum(axis=1), (ref ** p).sum(axis=1), atol=1e-8)
               for p in (1, 2, 3))


def _decomposition(doc, want):
    got = {int(k): _cyc(v) for k, v in doc["coefficients"].items()}
    return set(got) == set(want) and all(got[k] == want[k] for k in want)


# verb -> (library call on the argument documents, comparison of output and answer)
REFERENCE = {
    "sn mul": (lambda a: _sn(a["a"]) * _sn(a["b"]), _same(_sn)),
    "sn divides": (lambda a: {"divides": _sn(a["s"]).divisible_by(a["l"])}, _equal),
    "sn gcd": (lambda a: {"gcd": _sn(a["s"]).gcd(a["n"])}, _equal),
    "sn chain": (lambda a: {"chain": _sn(a["s"]).divisor_chain(a["depth"])}, _equal),
    "zs embed": (lambda a: P.DivisorChain.from_json(a["chain"]).embed(a["x"]), _same(_pi)),
    "zs add": (lambda a: _pi(a["x"]) + _pi(a["y"]), _same(_pi)),
    "zs mul": (lambda a: _pi(a["x"]) * _pi(a["y"]), _same(_pi)),
    "zs shift": (lambda a: _pi(a["x"]).shift(a["m"]), _same(_pi)),
    "zs fromresidue": (lambda a: P.DivisorChain.from_json(a["chain"]).from_residue(a["r"], a["l"]),
                       _same(_pi)),
    "zs residue": (lambda a: {"residue": _pi(a["x"]).residue(a["l"])}, _equal),
    "cyc add": (lambda a: _cyc(a["a"]) + _cyc(a["b"]), _same(_cyc)),
    "cyc mul": (lambda a: _cyc(a["a"]) * _cyc(a["b"]), _same(_cyc)),
    "cyc iszero": (lambda a: {"is_zero": _cyc(a["a"]).is_zero()}, _equal),
    "cyc conj": (lambda a: _cyc(a["a"]).conj(), _same(_cyc)),
    "fn char": (lambda a: O.character(a["l"], a["k"]), _same(_fn)),
    "fn pullback": (lambda a: _fn(a["f"]).pullback(a["m"]), _same(_fn)),
    "fn haar": (lambda a: _fn(a["f"]).haar_integral(), _same(_cyc)),
    "fn decompose": (lambda a: _fn(a["f"]).char_coefficients(), _decomposition),
    "bd mul": (lambda a: _bd(a["a"]) * _bd(a["b"]), _same(_bd)),
    "bd adjoint": (lambda a: _bd(a["a"]).adjoint(), _same(_bd)),
    "bd trace": (lambda a: _bd(a["a"]).trace(), _same(_cyc)),
    "bd norm": (lambda a: B.operator_norm(_bd(a["a"]), m=a["m"]), _norm),
    "bd spectrum": (lambda a: B.spectrum_sample(_bd(a["a"]), grid=a["grid"]), _spectrum),
    "der pickchar": (lambda a: D.pick_character(a["n"], _sn(a["s"])),
                     lambda doc, w: (doc["l"], doc["j"]) == (w.l, w.j)
                     and abs(doc["bound"] - w.bound) <= 1e-12),
    "der cocycle": (lambda a: D.solve_cocycle(_fn(a["ft"])), _same(_fn)),
    "der apply": (lambda a: D.DerivationData.from_json(a["d"]).apply(_bd(a["b"])), _same(_bd)),
    "der decompose": (lambda a: D.decompose_invariant(_fn(a["f"])),
                      lambda doc, w: _exact_c(doc["C"], w[0]) and _fn(doc["G"]) == w[1]),
    "k proj": (lambda a: K.residue_projection(a["l"], a["j"], _sn(a["s"])), _same(_bd)),
    "k k0": (lambda a: K.k0_class(_bd(a["p"])),
             lambda doc, w: Fraction(doc["class"]) == w.as_fraction()),
    "k taurho": (lambda a: (_phi(a["phi"]).tau(), _phi(a["phi"]).rho()),
                 lambda doc, w: doc["tau"] == w[0] and _pi(doc["rho"]) == w[1]),
    "k digitphi": (lambda a: K.PhiFn.from_profinite(_pi(a["x"])), _same(_phi)),
    "k psi": (lambda a: _phi(a["phi"]).coboundary_preimage(), _same(_phi)),
    "k r": (lambda a: {"value": _phi(a["phi"]).r_sum(a["l"], a["lp"], a["mode"])}, _equal),
    "hom snf": (lambda a: H.smith_normal_form(_mat(a["matrix"])),
                lambda doc, w: all(_mat(doc[k]) == m for k, m in zip("UDV", w))),
    "hom ext": (lambda a: H.ext1_hom(_mat(a["matrix"])),
                lambda doc, w: H.FGAbelianGroup.from_json(doc["hom"]) == w[0]
                and H.FGAbelianGroup.from_json(doc["ext"]) == w[1]),
}


def check(records: list) -> list:
    answers: dict = {}
    verdicts = []
    for k, task, out, _ in records:
        rc, stdout = out[0], out[1]
        call, same = REFERENCE[task["verb"]]
        try:
            if k not in answers:
                answers[k] = call(task["args"])
            ok = rc == 0 and same(json.loads(stdout), answers[k])
        except (ValueError, KeyError, TypeError):
            ok = False
        verdicts.append(ok)
    return verdicts
