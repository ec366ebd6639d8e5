"""Seeded inputs for the benchmark workloads, as plain JSON documents.

Everything here is pure Python and never imports bdalg: the program under
test receives only these documents (or values its own ``from_json`` builds
from them).  A workload is a list of rounds; a round is a list of tasks, and a
task is ``{"kind", "size", "args"}`` plus optional keys.  One task runs one or
more library calls; each call is one timed op.

Rounds are stratified: the mix of kinds and sizes is fixed and only the
contents (coefficients, exponents, matrix entries, residues) depend on the
seed, so per-op costs move little from seed to seed.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

S23 = [[2, "inf"], [3, "inf"]]
RATIONALS = ("1", "-1", "1/2", "-2/3", "3", "2")

# The nine supernatural numbers of the charpick property suite, as documents.
CHARPICK_POOL = (
    [[2, "inf"]], [[3, "inf"]], [[2, "inf"], [3, "inf"]], [[2, 2], [3, "inf"]],
    [[5, "inf"]], [[2, "inf"], [5, 1]], [[7, "inf"]],
    [[2, "inf"], [3, "inf"], [5, "inf"]], [[3, "inf"], [7, 2]],
)

# Rounds per input pool.  A run makes whole passes over the pool, rebuilding
# the inputs of every op from JSON; a pool holds at least a hundred ops.
POOL_ROUNDS = {"norms": 1, "exact": 1, "integer": 3, "cli": 3}
WARM_STREAM = 0x5EED


def cyclo(order: int, terms: dict) -> dict:
    return {"order": order,
            "terms": [[e, str(c)] for e, c in sorted(terms.items()) if c]}


def unit(rng: random.Random) -> dict:
    """A root of unity of order dividing 12, written on the order-12 basis so
    that its arithmetic cost does not depend on the seed."""
    return cyclo(12, {rng.randrange(12): 1})


def scaled_unit(rng: random.Random) -> dict:
    """c * zeta_12^e with a small rational c, on the order-12 basis."""
    return cyclo(12, {rng.randrange(12): Fraction(rng.choice(RATIONALS))})


def fn(values: list) -> dict:
    return {"period": len(values), "values": values}


def mean_zero_fn(rng: random.Random, l: int) -> dict:
    """An l-periodic function on the order-12 basis whose values sum to zero."""
    vals = [{rng.randrange(12): Fraction(rng.choice(RATIONALS))} for _ in range(l - 1)]
    last: dict = {}
    for v in vals:
        for e, c in v.items():
            last[e] = last.get(e, 0) - c
    return fn([cyclo(12, v) for v in vals] + [cyclo(12, last)])


def element(coeffs: dict, l: int) -> dict:
    return {"S": S23, "period": l,
            "coeffs": {str(n): f for n, f in sorted(coeffs.items())}}


# Supports by number of terms, |n| <= 3.  They are fixed, not drawn: the symbol
# build costs one J-power product per step from 0 to each n, so a drawn support
# would make the per-op cost depend on the seed.
SUPPORTS = {1: (2,), 2: (-1, 3), 3: (-3, 0, 1)}


def rand_element(rng: random.Random, l: int, nterms: int, value=unit) -> dict:
    return element({n: fn([value(rng) for _ in range(l)]) for n in SUPPORTS[nterms]}, l)


def int_matrix(rng: random.Random, n: int) -> dict:
    return {"rows": n, "cols": n,
            "entries": [rng.randint(-20, 20) for _ in range(n * n)]}


def digits_of(levels: list, r: int) -> list:
    out, prev = [], 1
    for l in levels:
        out.append((r // prev) % (l // prev))
        prev = l
    return out


def level_pairs(levels) -> list:
    lv = [1] + list(levels)
    return [[a, b] for a in lv for b in lv if a <= b and b % a == 0]


# ---------------------------------------------------------------------------
# norms: symbol build, evaluation and SVD

# (period, copies of the per-period set).  Small periods repeat so that the pool
# holds over a hundred distinct ops while one pass over it stays near 5 s.
NORM_SETS = ((6, 5), (12, 3), (24, 2))
TAIL_PERIOD = 48


def _norm(a: dict, eid: str, m: int, method: str = "binomial") -> dict:
    return {"kind": "norm", "size": a["period"], "eid": eid,
            "args": {"a": a, "m": m, "method": method}}


def _diag_norms(rng: random.Random, l: int, eid: str) -> list:
    d = element({0: fn([unit(rng) for _ in range(l)])}, l)
    return [_norm(d, eid, m) for m in (0, 3)]


def norm_set(rng: random.Random, l: int, tag: str) -> list:
    """Three elements with 1, 2 and 3 terms, m = 0..6 spread over them (method
    alternating), a second call at m = 2 with the other method on the same
    element, a spectrum, and two norms of a diagonal element."""
    elems = [rand_element(rng, l, t) for t in (1, 2, 3)]
    tasks = [_norm(elems[m % 3], f"{tag}:{m % 3}", m, ("binomial", "recursive")[m % 2])
             for m in range(7)]
    tasks.append(_norm(elems[2], f"{tag}:2", 2, "recursive"))
    tasks.append({"kind": "spectrum", "size": l, "eid": f"{tag}:1", "args": {"a": elems[1]}})
    return tasks + _diag_norms(rng, l, f"{tag}:diag")


def norms_round(rng: random.Random, r: int) -> list:
    tasks = []
    for l, copies in NORM_SETS:
        for c in range(copies):
            tasks += norm_set(rng, l, f"{r}:{l}:{c}")
    # The tail: l = 48 with m = 6 on the 1-term element and cheaper calls on
    # the others.
    tag = f"{r}:{TAIL_PERIOD}"
    e = [rand_element(rng, TAIL_PERIOD, t) for t in (1, 2, 3)]
    tasks += [_norm(e[0], f"{tag}:0", 6), _norm(e[1], f"{tag}:1", 1, "recursive"),
              _norm(e[2], f"{tag}:2", 0),
              {"kind": "spectrum", "size": TAIL_PERIOD, "eid": f"{tag}:0", "args": {"a": e[0]}}]
    tasks += _diag_norms(rng, TAIL_PERIOD, f"{tag}:diag")
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# exact: cyclotomic arithmetic, transforms, products, derivations

TRANSFORM_PERIODS = (6, 12, 24, 36, 72)
PRODUCT_PERIODS = (6, 12, 24)


def exact_round(rng: random.Random, r: int) -> list:
    tasks = []
    for l in TRANSFORM_PERIODS:
        f = fn([scaled_unit(rng) for _ in range(l)])
        tasks.append({"kind": "charco", "size": l, "args": {"f": f}})
        ks = rng.sample(range(l), max(2, l // 4))
        coeffs = {str(k): scaled_unit(rng) for k in sorted(ks)}
        tasks.append({"kind": "synth", "size": l, "args": {"coeffs": coeffs, "l": l}})
    # Eight solver calls of each kind at l = 24 put the 90th percentile inside
    # their cluster rather than at the edge of the l >= 36 group.
    for l in TRANSFORM_PERIODS + (24,) * 7:
        tasks.append({"kind": "cocycle", "size": l, "args": {"ft": mean_zero_fn(rng, l)}})
        tasks.append({"kind": "decompose", "size": l,
                      "args": {"f": fn([scaled_unit(rng) for _ in range(l)])}})
    for l in PRODUCT_PERIODS:
        for _ in range(3):
            tasks.append({"kind": "bdmul", "size": l, "args": {
                "a": rand_element(rng, l, 2, scaled_unit),
                "b": rand_element(rng, l, 2, scaled_unit)}})
            tasks.append({"kind": "adjoint", "size": l,
                          "args": {"a": rand_element(rng, l, 2, scaled_unit)}})
            tasks.append({"kind": "covariance", "size": l,
                          "args": {"f": fn([scaled_unit(rng) for _ in range(l)])}})
    # Forty covariance checks at l = 12 on roots of unity give the median a
    # cluster of equal-cost ops to fall in.
    for _ in range(40):
        tasks.append({"kind": "covariance", "size": 12,
                      "args": {"f": fn([unit(rng) for _ in range(12)])}})
    for i in range(6):
        l = (6, 12)[i % 2]
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        tasks.append({"kind": "derivation", "size": l, "args": {
            "n": n, "F": fn([scaled_unit(rng) for _ in range(l)]), "S": S23}})
    for S in CHARPICK_POOL:
        for _ in range(4):
            n = rng.choice([k for k in range(-60, 61) if k])
            tasks.append({"kind": "pickchar", "size": 1, "args": {"n": n, "S": S}})
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# integer: K-homology functions, K0, Smith normal form, supernatural numbers

R_CHAINS = ([2, 12, 72], [2, 4, 8, 16], [3, 9, 27], [2, 6, 12, 24])
R_SUM_CHAINS = ([2, 12, 72], [2, 6, 12, 24])
OBSTRUCTION_CHAIN = [2, 12, 72, 432, 2592]
# Ten 30x30 matrices per round put the 90th percentile inside their cluster.
SNF_SIZES = (5, 10, 15, 20, 25) + (30,) * 10


def integer_round(rng: random.Random, r: int) -> list:
    tasks = []
    for levels in R_CHAINS:
        if levels in R_SUM_CHAINS:
            top = [rng.randint(-9, 9) for _ in range(levels[-1])]
            tasks.append({"kind": "rsum", "size": levels[-1], "args": {
                "phi": {"chain": levels, "top": top}, "pairs": level_pairs(levels)}})
        kern = [rng.randint(-9, 9) for _ in range(levels[-1] - 1)]
        kern.append(-sum(kern))
        tasks.append({"kind": "psi", "size": levels[-1],
                      "args": {"phi": {"chain": levels, "top": kern}}})
        x = rng.randrange(levels[-1])
        tasks.append({"kind": "rho", "size": levels[-1], "args": {
            "x": {"chain": levels, "digits": digits_of(levels, x)}}})
    for l in (2, 6, 12):
        tasks.append({"kind": "k0", "size": l,
                      "args": {"l": l, "j": rng.randrange(l), "S": S23}})
    for _ in range(2):
        tasks.append({"kind": "homobs", "size": 1, "args": {
            "l": rng.choice([1, 2, 12]), "a": rng.choice([-1, 1]) * rng.randint(1, 30),
            "chain": OBSTRUCTION_CHAIN}})
    for i, n in enumerate(SNF_SIZES):
        kind = ("snf", "ext")[i % 2]
        tasks.append({"kind": kind, "size": n, "args": {"matrix": int_matrix(rng, n)}})
    for _ in range(3):
        tasks.append({"kind": "sn", "size": 1, "args": {
            "S": rng.choice(CHARPICK_POOL), "depth": rng.randint(3, 8),
            "n": rng.randint(2, 10 ** 6),
            "d": 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 4) * rng.choice([1, 5, 7])}})
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# cli: one fresh `python -m bdalg` process per op

CLI_SPECTRUM_GRID = 64


def cli_task(group: str, verb: str, args: dict, stdin: bool, size: int = 1) -> dict:
    if stdin:
        argv, text = [group, verb, "--json", "-"], json.dumps(args)
    else:
        argv, text = [group, verb], None
        for k, v in args.items():
            argv += ["--" + k.replace("_", "-"), json.dumps(v)]
    return {"kind": "cli", "size": size, "verb": f"{group} {verb}",
            "args": args, "argv": argv, "stdin": text}


def cli_round(rng: random.Random, r: int) -> list:
    small = lambda l=6, t=2: rand_element(rng, l, t, scaled_unit)  # noqa: E731
    chain = [2, 12, 72]
    x = {"chain": chain, "digits": digits_of(chain, rng.randrange(72))}
    y = {"chain": chain, "digits": digits_of(chain, rng.randrange(72))}
    phi_top = [rng.randint(-9, 9) for _ in range(11)]
    phi = {"chain": [2, 12], "top": phi_top + [-sum(phi_top)]}
    sn_a, sn_b = rng.choice(CHARPICK_POOL), rng.choice(CHARPICK_POOL)
    j12 = rng.randrange(12)
    specs = [
        ("sn", "mul", {"a": sn_a, "b": sn_b}),
        ("sn", "divides", {"l": rng.randint(1, 500), "s": S23}),
        ("sn", "gcd", {"n": rng.randint(1, 10 ** 5), "s": sn_a}),
        ("sn", "chain", {"s": S23, "depth": rng.randint(2, 6)}),
        ("zs", "embed", {"x": rng.randint(-500, 500), "chain": chain}),
        ("zs", "add", {"x": x, "y": y}),
        ("zs", "mul", {"x": x, "y": y}),
        ("zs", "shift", {"x": x, "m": rng.randint(-9, 9)}),
        ("zs", "fromresidue", {"r": rng.randrange(72), "l": 72, "chain": chain}),
        ("zs", "residue", {"x": x, "l": rng.choice(chain)}),
        ("cyc", "add", {"a": scaled_unit(rng), "b": unit(rng)}),
        ("cyc", "mul", {"a": scaled_unit(rng), "b": unit(rng)}),
        ("cyc", "iszero", {"a": cyclo(12, {0: 1, 4: 1, 8: 1})}),
        ("cyc", "conj", {"a": scaled_unit(rng)}),
        ("fn", "char", {"l": 12, "k": rng.randrange(12)}),
        ("fn", "pullback", {"f": fn([unit(rng) for _ in range(6)]), "m": rng.randint(-5, 5)}),
        ("fn", "haar", {"f": fn([scaled_unit(rng) for _ in range(6)])}),
        ("fn", "decompose", {"f": fn([scaled_unit(rng) for _ in range(6)])}),
        ("bd", "mul", {"a": small(), "b": small()}),
        ("bd", "adjoint", {"a": small()}),
        ("bd", "trace", {"a": small()}),
        ("bd", "norm", {"a": rand_element(rng, 6, 2), "m": 1}),
        ("bd", "spectrum", {"a": rand_element(rng, 6, 2), "grid": CLI_SPECTRUM_GRID}),
        ("der", "pickchar", {"n": rng.choice([k for k in range(-60, 61) if k]),
                             "s": rng.choice(CHARPICK_POOL)}),
        ("der", "cocycle", {"ft": mean_zero_fn(rng, 24)}),
        ("der", "apply", {"d": {"C": "0", "G": fn([cyclo(1, {})]),
                                "covariant": {"1": fn([scaled_unit(rng) for _ in range(6)])}},
                          "b": small()}),
        ("der", "decompose", {"f": fn([scaled_unit(rng) for _ in range(6)])}),
        ("k", "proj", {"l": 6, "j": rng.randrange(6), "s": S23}),
        ("k", "k0", {"p": element({0: fn([cyclo(1, {0: int(i == j12)}) for i in range(12)])}, 12)}),
        ("k", "taurho", {"phi": phi}),
        ("k", "psi", {"phi": phi}),
        ("k", "r", {"phi": phi, "l": 2, "lp": 12, "mode": "def"}),
        ("k", "digitphi", {"x": x}),
        ("hom", "snf", {"matrix": int_matrix(rng, 5)}),
        ("hom", "ext", {"matrix": int_matrix(rng, 5)}),
    ]
    tasks = [cli_task(g, v, a, stdin=(i % 3 == 2)) for i, (g, v, a) in enumerate(specs)]
    rng.shuffle(tasks)
    return tasks


def smallest_of_each_kind(tasks: list) -> list:
    """The first task of each kind at that kind's smallest size."""
    best: dict = {}
    for t in tasks:
        if t["kind"] not in best or t["size"] < best[t["kind"]]["size"]:
            best[t["kind"]] = t
    return list(best.values())


ROUNDS = {"norms": norms_round, "exact": exact_round,
          "integer": integer_round, "cli": cli_round}


def generate(workload: str, seed: int) -> dict:
    """The timed pool and the separate warm-up round for one workload."""
    make = ROUNDS[workload]
    rng = random.Random(seed)
    pool = [make(rng, r) for r in range(POOL_ROUNDS[workload])]
    warm = make(random.Random(seed ^ WARM_STREAM), 0)
    return {"workload": workload, "seed": seed, "pool": pool, "warm": warm}
