"""Seeded property-suite runner.

Each suite is the runnable counterpart of one of the constructive identities
implemented by this package, executed on seeded random (or exhaustive) inputs
at full or 1/10 scale.  Reports carry the number of cases, the first
counterexample if any, and the wall-clock duration; all randomness comes from
the given seed, so counterexamples reproduce.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .bd_algebra import BDElement, operator_norm
from .cyclotomic import Cyclo, root_of_unity
from .derivations import DerivationData, pick_character, recover_covariant, solve_cocycle
from .homalg import FGAbelianGroup, IntMatrix, ext1_hom, smith_normal_form
from .k_invariants import GSRational, PhiFn, k0_class, residue_projection
from .odometer_fn import LocConstFn, character
from .profinite import DivisorChain
from .supernatural import INF, SupernaturalNumber


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    statement: str
    cases_run: int
    cases_passed: int
    first_counterexample: dict
    duration_s: float
    seed: int
    scale: str

    def __post_init__(self):
        if self.cases_passed > self.cases_run:
            raise ValueError("passed cannot exceed run")
        if (self.first_counterexample is not None) != (self.cases_passed < self.cases_run):
            raise ValueError("counterexample must be present exactly when cases fail")

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run

    def to_json(self) -> dict:
        return {"suite": self.suite, "statement": self.statement,
                "cases_run": self.cases_run, "cases_passed": self.cases_passed,
                "first_counterexample": self.first_counterexample,
                "duration_s": round(self.duration_s, 3),
                "seed": self.seed, "scale": self.scale, "passed": self.passed}


def _scaled(n: int, scale: str) -> int:
    if scale == "full":
        return n
    if scale == "small":
        return max(1, n // 10)
    raise ValueError(f"unknown scale {scale!r}")


class _Collector:
    """Tallies pass/fail and keeps the first failing input set."""

    def __init__(self):
        self.run = 0
        self.passed = 0
        self.first = None

    def check(self, ok: bool, witness) -> None:
        self.run += 1
        if ok:
            self.passed += 1
        elif self.first is None:
            self.first = witness() if callable(witness) else witness


# ---------------------------------------------------------------------------
# seeded generators

_ORDERS = (1, 1, 2, 3, 4, 6, 8, 12)


def rand_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_cyclo(rng: random.Random) -> Cyclo:
    order = rng.choice(_ORDERS)
    out = Cyclo.zero()
    for _ in range(rng.randint(1, 2)):
        out = out + root_of_unity(rng.randrange(order), order) * rand_fraction(rng)
    return out


def rand_fn(rng: random.Random, period: int) -> LocConstFn:
    return LocConstFn([rand_cyclo(rng) for _ in range(period)])


def rand_bd(rng: random.Random, S: SupernaturalNumber, periods,
            max_n: int = 3, max_terms: int = 3) -> BDElement:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.randint(-max_n, max_n)] = rand_fn(rng, rng.choice(periods))
    return BDElement(S, coeffs)


def rand_phi(rng: random.Random, chain: DivisorChain, span: int = 9) -> PhiFn:
    return PhiFn(chain, [rng.randint(-span, span) for _ in range(chain.top)])


_S23 = SupernaturalNumber.of({2: INF, 3: INF})
_PERIODS_24 = (1, 2, 3, 4, 6, 8, 12, 24)


# ---------------------------------------------------------------------------
# suites

def _suite_covariance(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    u = BDElement.shift(_S23)
    for _ in range(_scaled(500, scale)):
        f = rand_fn(rng, rng.choice(_PERIODS_24))
        lhs = BDElement.mult_op(_S23, f) * u
        rhs = u * BDElement.mult_op(_S23, f.pullback(1))
        col.check(lhs == rhs, lambda: {"f": f.to_json()})
    return VerifyReport("covariance", "M_f U = U M_{f o beta}",
                        col.run, col.passed, col.first,
                        time.perf_counter() - t0, seed, scale)


def _suite_mnorm(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    for _ in range(_scaled(100, scale)):
        a = rand_bd(rng, _S23, (1, 2, 3, 6), max_n=3, max_terms=3)
        ok = True
        for m in range(7):
            rb = operator_norm(a, m=m, grid=256, method="binomial")
            rr = operator_norm(a, m=m, grid=256, method="recursive")
            if rb.value != rr.value or rb.window != rr.window:
                ok = False
                break
        col.check(ok, lambda: {"a": a.to_json(), "m": m})
    return VerifyReport(
        "mnorm", "binomial and recursive norm assemblies agree bit for bit, M <= 6",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


def _suite_cocycle(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    for _ in range(_scaled(500, scale)):
        raw = rand_fn(rng, rng.choice(_PERIODS_24))
        ft = raw - LocConstFn.constant(raw.haar_integral(), raw.period)
        g = solve_cocycle(ft)
        ok = (g.pullback(1) - g == ft) and g.haar_integral().is_zero()
        col.check(ok, lambda: {"ft": ft.to_json()})
    return VerifyReport(
        "cocycle", "G o beta - G = F with mean-zero F, solved by a prefix sum",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


def _suite_covariant_roundtrip(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    for _ in range(_scaled(200, scale)):
        n = rng.choice([k for k in range(-6, 7) if k != 0])
        f = rand_fn(rng, rng.choice((1, 2, 3, 4, 6, 8)))
        pick = pick_character(n, _S23)
        d = DerivationData(0, LocConstFn.zero(), {n: f})
        delta_of_chi = d.apply(BDElement.mult_op(_S23, character(pick.l, pick.j)))
        recovered = recover_covariant(n, pick.l, pick.j, delta_of_chi)
        col.check(recovered == f,
                  lambda: {"n": n, "l": pick.l, "j": pick.j, "F": f.to_json()})
    return VerifyReport(
        "covariant-roundtrip",
        "F recovered exactly from [U^n M_F, .] applied to one character",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


_CHARPICK_POOL = (
    SupernaturalNumber.of({2: INF}),
    SupernaturalNumber.of({3: INF}),
    SupernaturalNumber.of({2: INF, 3: INF}),
    SupernaturalNumber.of({2: 2, 3: INF}),
    SupernaturalNumber.of({5: INF}),
    SupernaturalNumber.of({2: INF, 5: 1}),
    SupernaturalNumber.of({7: INF}),
    SupernaturalNumber.of({2: INF, 3: INF, 5: INF}),
    SupernaturalNumber.of({3: INF, 7: 2}),
)


def _suite_charpick(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    for _ in range(_scaled(200, scale)):
        n = rng.choice([k for k in range(-60, 61) if k != 0])
        S = rng.choice(_CHARPICK_POOL)
        pick = pick_character(n, S)
        val = root_of_unity(n * pick.j, pick.l)
        gap = abs(Cyclo.one() - val)
        h = pick.l // S.gcd(abs(n))
        ok = gap >= 1.5 - 1e-12
        if h % 2 == 0:
            ok = ok and val == Cyclo.from_rational(-1) and pick.bound == 2.0
        col.check(ok, lambda: {"n": n, "S": S.to_json(),
                               "l": pick.l, "j": pick.j, "gap": gap})
    return VerifyReport(
        "charpick", "|1 - chi(q(n))| >= 3/2 for the selected character; = 2 for even h",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


_R_CHAINS = (DivisorChain.of([2, 4, 8, 16]),
             DivisorChain.of([2, 6, 12]),
             DivisorChain.of([3, 9, 27]))


def _level_pairs(chain: DivisorChain):
    levels = (1,) + chain.levels
    return [(a, b) for a in levels for b in levels if b % a == 0 and a <= b]


def _suite_consistency(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    for i in range(_scaled(1000, scale)):
        chain = _R_CHAINS[i % len(_R_CHAINS)]
        phi = rand_phi(rng, chain)
        ok = True
        for l, lp in _level_pairs(chain):
            if phi.r_sum(1, lp) - phi.r_sum(1, l) != l * phi.r_sum(l, lp):
                ok = False
            if (phi.r_sum(1, l) - phi.r_sum(1, lp)) % l != 0:
                ok = False
        col.check(ok, lambda: {"phi": phi.to_json()})
    # sign bridge, exhaustive over small tops
    for levels in ((2, 4), (2, 6), (3, 6)):
        chain = DivisorChain.of(levels)
        for combo in range(5 ** chain.top):
            top, c = [], combo
            for _ in range(chain.top):
                top.append(c % 5 - 2)
                c //= 5
            phi = PhiFn(chain, top)
            ok = all((phi.r_sum(1, l, "lin") + phi.r_sum(1, l, "def")) % l == 0
                     for l in (1,) + chain.levels)
            col.check(ok, lambda: {"phi": phi.to_json()})
    return VerifyReport(
        "consistency",
        "R(1,l') - R(1,l) = l R(l,l'); R congruent along the chain; R_lin = -R_def (mod l)",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


def _suite_kernel_image(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    chains = _R_CHAINS + (DivisorChain.of([2, 4]),)
    for i in range(_scaled(1000, scale)):
        chain = chains[i % len(chains)]
        top = [rng.randint(-9, 9) for _ in range(chain.top - 1)]
        top.append(-sum(top))  # tau = 0
        phi = PhiFn(chain, top)
        psi = phi.coboundary_preimage()
        ok = psi.coboundary() == phi
        # tau kills coboundaries, and the R identity for an arbitrary psi0
        psi0 = rand_phi(rng, chain)
        cb = psi0.coboundary()
        ok = ok and cb.tau() == 0
        ok = ok and all(cb.r_sum(1, l) == l * psi0.value(l, 0) - psi0.value(1, 0)
                        for l in chain.levels)
        col.check(ok, lambda: {"phi": phi.to_json(), "psi0": psi0.to_json()})
    return VerifyReport(
        "kernel-image",
        "coboundary_preimage inverts 1 - shift* on the tau-kernel; tau o coboundary = 0",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


def _suite_rho_onto(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    col = _Collector()
    for levels in ((2, 4, 8), (2, 6, 12), (3, 9, 27)):
        chain = DivisorChain.of(levels)
        for r in range(chain.top):
            phi = PhiFn.from_profinite(chain.from_residue(r))
            ok = all(phi.r_sum(1, l, "lin") % l == r % l for l in chain.levels)
            col.check(ok, lambda: {"chain": list(levels), "residue": r})
    return VerifyReport(
        "rho-onto",
        "digit construction realizes every residue: R_lin(1, l_n) = x (mod l_n)",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


_S_K0 = SupernaturalNumber.of({2: INF, 3: INF, 5: INF, 7: INF, 11: INF})


def _suite_k0(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    col = _Collector()
    for l in range(1, 13):
        for j in range(l):
            cls = k0_class(residue_projection(l, j, _S_K0))
            col.check(cls == GSRational(1, l), lambda: {"l": l, "j": j, "class": str(cls)})
    for l, lp in ((1, 2), (2, 4), (2, 6), (3, 9), (4, 8), (6, 12)):
        total = BDElement.zero(_S_K0)
        parts = []
        for j in range(lp // l):
            p = residue_projection(lp, j * l, _S_K0)
            parts.append(k0_class(p))
            total = total + p
        ok = total == residue_projection(l, 0, _S_K0)
        sum_cls = parts[0]
        for c in parts[1:]:
            sum_cls = sum_cls + c
        ok = ok and sum_cls == GSRational(1, l)
        ok = ok and Fraction(1, l) == (lp // l) * Fraction(1, lp)
        col.check(ok, lambda: {"l": l, "lp": lp})
    for a, b in ((0, 1), (1, 2), (0, 3)):
        prod = residue_projection(4, a, _S_K0) * residue_projection(4, b, _S_K0)
        col.check(prod == BDElement.zero(_S_K0), lambda: {"a": a, "b": b})
    return VerifyReport(
        "k0", "projection decomposition, trace classes 1/l, pushforward 1/l = (l'/l)(1/l')",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


def _suite_ext(seed: int, scale: str) -> VerifyReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    col = _Collector()
    top_n = 100 if scale == "full" else 30
    for n in range(2, top_n + 1):
        hom, ext = ext1_hom(IntMatrix.from_rows([[n]]))
        ok = hom == FGAbelianGroup(0) and ext == FGAbelianGroup(0, (n,))
        col.check(ok, lambda: {"n": n})
    for _ in range(_scaled(500, scale)):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(n)]
                                 for _ in range(m)])
        u, d, v = smith_normal_form(a)
        ok = (u * a * v == d and abs(u.determinant()) == 1
              and abs(v.determinant()) == 1)
        diag = d.diagonal()
        for i in range(len(diag) - 1):
            if diag[i] != 0 and diag[i + 1] != 0 and diag[i + 1] % diag[i] != 0:
                ok = False
        col.check(ok, lambda: {"matrix": a.to_json()})
    return VerifyReport(
        "ext", "Ext^1(Z/nZ, Z) = Z/nZ for n <= 100; U A V = D with unimodular U, V",
        col.run, col.passed, col.first, time.perf_counter() - t0, seed, scale)


SUITES = {
    "covariance": _suite_covariance,
    "mnorm": _suite_mnorm,
    "cocycle": _suite_cocycle,
    "covariant-roundtrip": _suite_covariant_roundtrip,
    "charpick": _suite_charpick,
    "consistency": _suite_consistency,
    "kernel-image": _suite_kernel_image,
    "rho-onto": _suite_rho_onto,
    "k0": _suite_k0,
    "ext": _suite_ext,
}


def run_suite(name: str, seed: int = 0, scale: str = "full") -> list:
    """Run one suite (or all of them); returns a list of reports."""
    if scale not in ("full", "small"):
        raise ValueError(f"unknown scale {scale!r}")
    if name == "all":
        return [fn(seed, scale) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(list(SUITES) + ['all'])}")
    return [SUITES[name](seed, scale)]
