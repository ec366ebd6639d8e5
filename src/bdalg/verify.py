"""Seeded property suites and the one runner that drives them.

Each suite is the runnable counterpart of one of the constructive identities
implemented by this package, and states only its checks: a generator
`checks(rng, scale)` registered with `@_suite(name, statement)`.  It draws
every input from `rng`, runs `_scaled(n, scale)` cases (n at scale "full",
n // 10 at "small") or an exhaustive list, and yields `(ok, witness)` once per
case.  The witness describes the case's inputs; a callable witness is called
only when the case fails, before the generator resumes.

Registration fills `SUITES` in definition order with one runner per suite,
`SUITES[name](seed, scale) -> VerifyReport`.  The runner checks the scale,
seeds `random.Random(seed)`, times the run, counts the cases and the passes,
and keeps the first failure's witness; all randomness comes from the seed, so
counterexamples reproduce.  An exception raised by a check counts as one more
failing case, with witness {"error": type name, "message": text} unless an
earlier failure was kept, and ends that suite; the other suites still run.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from .bd_algebra import (BDElement, _assemble_norm, _base_norms, _complex_values, _cosets,
                         _numpy, _point_tops)
from .cyclotomic import Cyclo, root_of_unity
from .derivations import (DerivationData, decompose_invariant, pick_character,
                          recover_covariant, solve_cocycle)
from .homalg import FGAbelianGroup, IntMatrix, ext1_hom, smith_normal_form
from .k_invariants import GSRational, PhiFn, k0_class, residue_projection
from .odometer_fn import LocConstFn, character
from .profinite import DivisorChain
from .supernatural import INF, SupernaturalNumber, _Frozen


class VerifyReport(_Frozen):
    __slots__ = ("suite", "statement", "cases_run", "cases_passed", "first_counterexample",
                 "duration_s", "seed", "scale")

    def __init__(self, suite: str, statement: str, cases_run: int, cases_passed: int,
                 first_counterexample: dict, duration_s: float, seed: int, scale: str):
        if cases_passed > cases_run:
            raise ValueError("passed cannot exceed run")
        if (first_counterexample is not None) != (cases_passed < cases_run):
            raise ValueError("counterexample must be present exactly when cases fail")
        self._init(suite, statement, cases_run, cases_passed, first_counterexample,
                   duration_s, seed, scale)

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run

    def to_json(self) -> dict:
        return {"suite": self.suite, "statement": self.statement,
                "cases_run": self.cases_run, "cases_passed": self.cases_passed,
                "first_counterexample": self.first_counterexample,
                "duration_s": round(self.duration_s, 3),
                "seed": self.seed, "scale": self.scale, "passed": self.passed}


SUITES = {}


def _scaled(n: int, scale: str) -> int:
    return n if scale == "full" else max(1, n // 10)


def _suite(name: str, statement: str):
    """Register the generator `checks(rng, scale)` as the suite `name`."""
    def register(checks):
        def run(seed: int, scale: str) -> VerifyReport:
            if scale not in ("full", "small"):
                raise ValueError(f"unknown scale {scale!r}")
            t0 = time.perf_counter()
            cases = passed = 0
            first = None
            try:
                for ok, witness in checks(random.Random(seed), scale):
                    cases += 1
                    if ok:
                        passed += 1
                    elif first is None:
                        first = witness() if callable(witness) else witness
            except Exception as e:  # one failing case that ends this suite only
                cases += 1
                if first is None:
                    first = {"error": type(e).__name__, "message": str(e)}
            return VerifyReport(name, statement, cases, passed, first,
                                time.perf_counter() - t0, seed, scale)
        SUITES[name] = run
        return checks
    return register


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

# labels (-5, 0, 2, 6) at l = 2: level 1 (labels -5, 2, 6: one 2 x 2 block)
# peaks twice, and the seed points and their neighbours find the lower peak only
_TWO_PEAKS = BDElement(_S23, {
    -5: LocConstFn([Fraction(-5, 2), 3 * root_of_unity(7, 12)]),
    0: LocConstFn([Fraction(2, 3) * root_of_unity(11, 12), Fraction(1, 2) * root_of_unity(1, 12)]),
    2: LocConstFn([-2, Fraction(5, 3) * root_of_unity(7, 12)]),
    6: LocConstFn([Fraction(-3, 4), Fraction(1, 2) * root_of_unity(1, 12)])})


# ---------------------------------------------------------------------------
# suites

@_suite("covariance", "M_f U = U M_{f o beta}")
def _covariance(rng, scale):
    # U has period 1, so both sides scale; U at f's period takes the pointwise product
    u = BDElement.shift(_S23)
    for _ in range(_scaled(500, scale)):
        f = rand_fn(rng, rng.choice(_PERIODS_24))
        lhs = BDElement.mult_op(_S23, f) * u
        rhs = u * BDElement.mult_op(_S23, f.pullback(1))
        generic = BDElement.mult_op(_S23, f) * u.with_period(f.period)
        yield lhs == rhs == generic, lambda: {"f": f.to_json()}


def _assemblies_agree(parts: list, values: dict) -> bool:
    rb, rr = (_assemble_norm(parts, method, values) for method in ("binomial", "recursive"))
    return rb.value == rr.value and rb.window == rr.window


def _grid_top(a: BDElement, grid: int, j: int, values: dict) -> float:
    """The largest top singular value of level j of a over every grid point:
    _point_tops at each index of the grid, in each of the level's blocks."""
    g = _cosets(a.period, [n for n in a.coeffs if n or not j])[0]
    return float(_point_tops(a, grid, j, values, _numpy().arange(grid).repeat(g)[None]).max())


def _off_the_grid_maximum(a: BDElement, parts: list, values: dict) -> list:
    """The levels j of parts, a's base norms, whose value is not the maximum
    over every grid point: within 1e-13 for a level with one or two labels,
    which _base_norms reads exactly as |n|^j sup |f_n| or samples at the
    points its cycle phases select, and exactly for one with three or more,
    which it decomposes at its seed points and where its certificate fails."""
    off = []
    for j, (value, kind, eff) in enumerate(parts):
        if kind == "grid-estimate":
            full = _grid_top(a, eff, j, values)
            rel = 1e-13 if sum(1 for n in a.coeffs if n or not j) <= 2 else 0.0
            if abs(float(value) - full) > rel * full:
                off.append(j)
    return off


@_suite("mnorm", "binomial and recursive norm assemblies agree bit for bit, M <= 6, "
                 "and every sampled level reaches the maximum over the whole grid, "
                 "exactly with three or more labels")
def _mnorm(rng, scale):
    # level j of the base norms does not depend on M, so one sampling serves
    # M <= 6; _TWO_PEAKS has a peak that the seed points miss, drawn ones need not
    drawn = [rand_bd(rng, _S23, (1, 2, 3, 6), max_n=3, max_terms=3)
             for _ in range(_scaled(100, scale))]
    for a in drawn + [_TWO_PEAKS]:
        values = _complex_values(a)
        parts = _base_norms(a, 6, 256, values)
        bad = next((m for m in range(7) if not _assemblies_agree(parts[:m + 1], values)), None)
        off = _off_the_grid_maximum(a, parts, values)
        yield bad is None and not off, lambda: {"a": a.to_json(), "m": bad, "levels": off}


@_suite("cocycle", "G o beta - G = F with mean-zero F, solved by a prefix sum")
def _cocycle(rng, scale):
    for _ in range(_scaled(500, scale)):
        raw = rand_fn(rng, rng.choice(_PERIODS_24))
        ft = raw - LocConstFn.constant(raw.haar_integral(), raw.period)
        g = solve_cocycle(ft)
        c, h = decompose_invariant(raw)
        ok = (g.pullback(1) - g == ft and g.haar_integral().is_zero()
              and c == raw.haar_integral() and h.pullback(1) - h == raw - c
              and h.haar_integral().is_zero())
        yield ok, lambda: {"ft": ft.to_json(), "f": raw.to_json()}


@_suite("covariant-roundtrip", "F recovered exactly from [U^n M_F, .] applied to one character")
def _covariant_roundtrip(rng, scale):
    for _ in range(_scaled(200, scale)):
        n = rng.choice([k for k in range(-6, 7) if k != 0])
        f = rand_fn(rng, rng.choice((1, 2, 3, 4, 6, 8)))
        pick = pick_character(n, _S23)
        d = DerivationData(0, LocConstFn.zero(), {n: f})
        delta_of_chi = d.apply(BDElement.mult_op(_S23, character(pick.l, pick.j)))
        recovered = recover_covariant(n, pick.l, pick.j, delta_of_chi)
        yield recovered == f, lambda: {"n": n, "l": pick.l, "j": pick.j, "F": f.to_json()}


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


@_suite("charpick", "|1 - chi(q(n))| >= 3/2 for the selected character; = 2 for even h")
def _charpick(rng, scale):
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
        yield ok, lambda: {"n": n, "S": S.to_json(), "l": pick.l, "j": pick.j, "gap": gap}


_R_CHAINS = (DivisorChain.of([2, 4, 8, 16]),
             DivisorChain.of([2, 6, 12]),
             DivisorChain.of([3, 9, 27]))


def _level_pairs(chain: DivisorChain):
    levels = (1,) + chain.levels
    return [(a, b) for a in levels for b in levels if b % a == 0 and a <= b]


@_suite("consistency",
        "R(1,l')-R(1,l) = l R(l,l'); R congruent on the chain; R_lin + R_def = l(tau - phi(l,-1))")
def _consistency(rng, scale):
    for i in range(_scaled(1000, scale)):
        chain = _R_CHAINS[i % len(_R_CHAINS)]
        phi = rand_phi(rng, chain)
        ok = True
        for l, lp in _level_pairs(chain):
            if phi.r_sum(1, lp) - phi.r_sum(1, l) != l * phi.r_sum(l, lp):
                ok = False
            if (phi.r_sum(1, l) - phi.r_sum(1, lp)) % l != 0:
                ok = False
        yield ok, lambda: {"phi": phi.to_json()}
    # sign bridge, exactly, exhaustive over small tops
    for levels in ((2, 4), (2, 6), (3, 6)):
        chain = DivisorChain.of(levels)
        for combo in range(5 ** chain.top):
            top, c = [], combo
            for _ in range(chain.top):
                top.append(c % 5 - 2)
                c //= 5
            phi = PhiFn(chain, top)
            ok = all(phi.r_sum(1, l, "lin") + phi.r_sum(1, l, "def")
                     == l * (phi.tau() - phi.value(l, -1)) for l in (1,) + chain.levels)
            yield ok, lambda: {"phi": phi.to_json()}


@_suite("kernel-image",
        "coboundary_preimage inverts 1 - shift* on the tau-kernel; tau o coboundary = 0")
def _kernel_image(rng, scale):
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
        yield ok, lambda: {"phi": phi.to_json(), "psi0": psi0.to_json()}


@_suite("rho-onto", "digit construction realizes every residue: R_lin(1, l_n) = x (mod l_n), "
                    "and rho(phi) = -x")
def _rho_onto(rng, scale):
    for levels in ((2, 4, 8), (2, 6, 12), (3, 9, 27)):
        chain = DivisorChain.of(levels)
        for r in range(chain.top):
            x = chain.from_residue(r)
            phi = PhiFn.from_profinite(x)
            ok = all(phi.r_sum(1, l, "lin") % l == r % l for l in chain.levels) and phi.rho() == -x
            yield ok, lambda: {"chain": list(levels), "residue": r}


_S_K0 = SupernaturalNumber.of({2: INF, 3: INF, 5: INF, 7: INF, 11: INF})


@_suite("k0", "projection decomposition, trace classes 1/l, pushforward 1/l = (l'/l)(1/l')")
def _k0(rng, scale):
    for l in range(1, 13):
        for j in range(l):
            cls = k0_class(residue_projection(l, j, _S_K0))
            yield cls == GSRational(1, l), lambda: {"l": l, "j": j, "class": str(cls)}
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
        yield ok, lambda: {"l": l, "lp": lp}
    for a, b in ((0, 1), (1, 2), (0, 3)):
        prod = residue_projection(4, a, _S_K0) * residue_projection(4, b, _S_K0)
        yield prod == BDElement.zero(_S_K0), lambda: {"a": a, "b": b}


@_suite("ext", "Ext^1(Z/nZ, Z) = Z/nZ for n <= 100, and (Z/p)^k for a planted B diag(1, ..., "
        "p, ..., p) C; U A V = D with unimodular U, V, and ext1_hom read off the diagonal of D")
def _ext(rng, scale):
    for n in range(2, (100 if scale == "full" else 30) + 1):
        hom, ext = ext1_hom(IntMatrix.from_rows([[n]]))
        yield hom == FGAbelianGroup(0) and ext == FGAbelianGroup(0, (n,)), lambda: {"n": n}
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
        nonzero = [x for x in diag if x]
        ok = ok and ext1_hom(a) == (FGAbelianGroup(m - len(nonzero)),
                                    FGAbelianGroup(0, tuple(x for x in nonzero if x >= 2)))
        yield ok, lambda: {"matrix": a.to_json()}
    for _ in range(_scaled(100, scale)):  # the planted B diag(1, ..., p, ..., p) C, n <= 12
        n, k, p = rng.randint(3, 12), rng.randint(2, 3), rng.choice((2, 3, 5, 7))
        rows = [[(p if i >= n - k else 1) * (i == j) for j in range(n)] for i in range(n)]
        for _ in range(6 * n):  # a row operation, then a transpose: B and C in turn
            (i, j), t = rng.sample(range(n), 2), rng.choice((-2, -1, 1, 2))
            rows[i] = [x + t * y for x, y in zip(rows[i], rows[j])]
            rows = [list(c) for c in zip(*rows)]
        a = IntMatrix.from_rows(rows)
        yield ext1_hom(a) == (FGAbelianGroup(0), FGAbelianGroup(0, (p,) * k)), lambda: {
            "matrix": a.to_json()}


def run_suite(name: str, seed: int = 0, scale: str = "full") -> list:
    """Run one suite (or all of them); returns a list of reports."""
    if name == "all":
        return [run(seed, scale) for run in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    return [SUITES[name](seed, scale)]
