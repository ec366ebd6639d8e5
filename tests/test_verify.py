import inspect
import json
import random
import textwrap

import pytest

from bdalg import (BDElement, DivisorChain, LocConstFn, PhiFn, VerifyReport, derivations,
                   homalg, k_invariants, odometer_fn, run_suite, verify)
from bdalg.cli import main
from bdalg.verify import SUITES, rand_fn, rand_phi


def test_report_invariants():
    with pytest.raises(ValueError):
        VerifyReport("x", "s", 5, 6, None, 0.0, 0, "full")
    with pytest.raises(ValueError):
        VerifyReport("x", "s", 5, 4, None, 0.0, 0, "full")
    with pytest.raises(ValueError):
        VerifyReport("x", "s", 5, 5, {"a": 1}, 0.0, 0, "full")
    r = VerifyReport("x", "s", 5, 4, {"a": 1}, 0.0, 0, "full")
    assert not r.passed
    assert VerifyReport("x", "s", 5, 5, None, 0.0, 0, "full").passed


def test_unknown_suite_and_scale():
    with pytest.raises(ValueError):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("k0", scale="medium")


def test_all_runs_every_suite():
    reports = run_suite("all", seed=3, scale="small")
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.passed for r in reports)


def test_small_scale_is_a_tenth():
    full = SUITES["covariance"](1, "full")
    small = SUITES["covariance"](1, "small")
    assert full.cases_run == 500
    assert small.cases_run == 50


def test_reports_deterministic_under_seed():
    a = SUITES["kernel-image"](9, "small")
    b = SUITES["kernel-image"](9, "small")
    assert (a.cases_run, a.cases_passed, a.first_counterexample) == \
        (b.cases_run, b.cases_passed, b.first_counterexample)
    c = SUITES["mnorm"](4, "small")
    assert c.passed and c.cases_run == 11


def test_every_suite_refuses_an_unknown_scale():
    # rho-onto and k0 draw nothing at random, so only the runner sees the scale
    for suite in SUITES.values():
        with pytest.raises(ValueError, match="unknown scale"):
            suite(0, "medium")


def test_cases_run_pinned_at_seed_7_small():
    reports = [suite(7, "small") for suite in SUITES.values()]
    assert [r.suite for r in reports] == [
        "covariance", "mnorm", "cocycle", "covariant-roundtrip", "charpick",
        "consistency", "kernel-image", "rho-onto", "k0", "ext"]
    assert [r.cases_run for r in reports] == [50, 11, 50, 20, 20, 31975, 100, 47, 87, 89]
    assert all(r.passed and r.seed == 7 and r.scale == "small" for r in reports)


def test_injected_fault_is_reported_with_its_first_witness(monkeypatch):
    # the coboundary goes wrong only on the chain 2 | 6 | 12, which kernel-image
    # visits at every fourth case starting with the second
    coboundary = PhiFn.coboundary

    def faulty(self):
        out = coboundary(self)
        if self.chain.top != 12:
            return out
        return PhiFn(self.chain, [out.top[0] + 1] + list(out.top[1:]))

    monkeypatch.setattr(PhiFn, "coboundary", faulty)
    rep = SUITES["kernel-image"](5, "small")
    assert rep.cases_run == 100 and rep.cases_passed == 75 and not rep.passed
    rng = random.Random(5)
    chains = (DivisorChain.of([2, 4, 8, 16]), DivisorChain.of([2, 6, 12]))
    for chain in chains:  # replay the draws of the first two cases
        top = [rng.randint(-9, 9) for _ in range(chain.top - 1)]
        phi = PhiFn(chain, top + [-sum(top)])
        psi0 = rand_phi(rng, chain)
    assert rep.first_counterexample == {"phi": phi.to_json(), "psi0": psi0.to_json()}


def raise_on_fourth_call(monkeypatch, wrong_first=False):
    """Make verify's k0_class raise on its fourth call (l = 3, j = 0 in the k0
    suite) and, with wrong_first, also answer its first call wrongly."""
    k0_class = verify.k0_class
    calls = []

    def faulty(p):
        calls.append(p)
        if len(calls) == 4:
            raise ValueError("not a projection")
        cls = k0_class(p)
        return cls + cls if wrong_first and len(calls) == 1 else cls

    monkeypatch.setattr(verify, "k0_class", faulty)


def test_exception_in_a_check_is_one_failing_case_that_ends_the_suite(monkeypatch):
    raise_on_fourth_call(monkeypatch)
    rep = SUITES["k0"](7, "small")
    assert (rep.cases_run, rep.cases_passed) == (4, 3)
    assert rep.first_counterexample == {"error": "ValueError", "message": "not a projection"}


def test_exception_in_a_check_keeps_an_earlier_witness(monkeypatch):
    raise_on_fourth_call(monkeypatch, wrong_first=True)
    rep = SUITES["k0"](7, "small")
    assert (rep.cases_run, rep.cases_passed) == (4, 2)
    assert rep.first_counterexample == {"l": 1, "j": 0, "class": "2/1"}


def test_exception_in_a_check_leaves_the_other_suites_running(monkeypatch):
    raise_on_fourth_call(monkeypatch)
    reports = run_suite("all", 7, "small")
    assert [r.suite for r in reports] == list(SUITES)
    assert [r.suite for r in reports if not r.passed] == ["k0"]


def test_ext_suite_catches_a_diagonal_that_drops_the_block_gcd(monkeypatch, capsys):
    # the mutant leaves c, the gcd of the trailing 3 x 3 block, out of d_(n-2);
    # only a cokernel with three invariant factors prime to the pivot shows it
    source = inspect.getsource(homalg._determinant_diagonal)
    assert source.count("[c, free // c]") == 1
    scope = dict(vars(homalg))
    exec(source.replace("[c, free // c]", "[1, free // c]"), scope)
    monkeypatch.setattr(homalg, "_determinant_diagonal", scope["_determinant_diagonal"])
    assert main(["verify", "ext", "--scale", "small"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert not doc["passed"] and doc["cases_passed"] < doc["cases_run"] == 89


def test_covariance_suite_catches_a_scalar_route_that_keeps_the_constant(monkeypatch, capsys):
    # the mutant scales the period-1 operand instead of the other one, so a
    # product with U returns a constant; M_f U and U M_(f o beta) both become
    # U times the constant f(1), and only M_f U_l, the pointwise product, shows it
    source = textwrap.dedent(inspect.getsource(LocConstFn.__mul__))
    routes = ("return self.scale(other.values[0])", "return other.scale(self.values[0])")
    assert all(source.count(r) == 1 for r in routes)
    mutant = source.replace(routes[0], "SWAP").replace(routes[1], routes[0]).replace("SWAP", routes[1])
    scope = dict(vars(odometer_fn))
    exec(mutant, scope)
    monkeypatch.setattr(LocConstFn, "__mul__", scope["__mul__"])
    assert main(["verify", "covariance", "--scale", "small", "--seed", "7"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert not doc["passed"] and doc["cases_passed"] < doc["cases_run"] == 50
    # the suite's check without M_f U_l passes every case under the mutant
    rng = random.Random(7)
    u = BDElement.shift(verify._S23)
    for _ in range(50):
        f = rand_fn(rng, rng.choice(verify._PERIODS_24))
        mf = BDElement.mult_op(verify._S23, f)
        assert mf * u == u * BDElement.mult_op(verify._S23, f.pullback(1))


def test_cocycle_suite_catches_a_kernel_that_drops_the_mean_step(monkeypatch, capsys):
    # the mutant drops -2S from each step G(j+1) = G(j) + (2l F_j - 2S)/(2dl), so
    # G o beta - G = f instead of f - C; a mean-zero ft whose numerators sum to
    # zero cannot show it, and only the decomposition of f with C != 0 does
    source = inspect.getsource(derivations._cocycle)
    step = "g = {e: x - 2 * s[e] for e, x in g.items()}"
    assert source.count(step) == 1
    scope = dict(vars(derivations))
    exec(source.replace(step, "g = dict(g)"), scope)
    monkeypatch.setattr(derivations, "_cocycle", scope["_cocycle"])
    assert main(["verify", "cocycle", "--scale", "small", "--seed", "7"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert not doc["passed"] and doc["cases_passed"] < doc["cases_run"] == 50
    # the suite's check without the decomposition passes every case under the mutant
    rng = random.Random(7)
    for _ in range(50):
        raw = rand_fn(rng, rng.choice(verify._PERIODS_24))
        ft = raw - LocConstFn.constant(raw.haar_integral(), raw.period)
        g = derivations.solve_cocycle(ft)
        assert g.pullback(1) - g == ft and g.haar_integral().is_zero()


K_SUITES = ("consistency", "kernel-image", "rho-onto")


def _failing_small_k_suites() -> list:
    return [name for name in K_SUITES if not SUITES[name](1, "small").passed]


def test_k_suites_catch_an_inclusive_prefix_in_r_def(monkeypatch):
    # the mutant reads R(l, l') over P[x + 1] instead of P[x], which is R of the
    # rotated top: every identity among def-mode sums still holds, and only the
    # bridge to the linear form and the coboundary identity show it
    source = textwrap.dedent(inspect.getsource(PhiFn.r_sum))
    kernel = "_prefix_sums(top, 0, l) - lp // l * _prefix_sums(top, 0, lp)"
    assert source.count(kernel) == 1
    scope = dict(vars(k_invariants))
    exec(source.replace(kernel, kernel.replace(", 0,", ", 1,")), scope)
    monkeypatch.setattr(PhiFn, "r_sum", scope["r_sum"])
    assert _failing_small_k_suites() == ["consistency", "kernel-image"]


def test_consistency_catches_r_lin_without_its_last_class_term(monkeypatch):
    # R_lin(1, l') written as (l'-1) sum_{0<x<=N, l'|x} P[x] - sum_x P[x]
    # + sum_{l'|x} P[x] + tau - l' sum top[l'-1::l'], with the last term dropped:
    # a multiple of l', so every congruence mod l' still holds, and only the
    # exact bridge R_lin + R_def = l'(tau - phi(l', -1)) shows it
    r_sum = PhiFn.r_sum

    def dropped(self, l, lp, mode="def"):
        out = r_sum(self, l, lp, mode)
        return out + lp * sum(self.top[lp - 1::lp]) if mode == "lin" else out

    monkeypatch.setattr(PhiFn, "r_sum", dropped)
    assert _failing_small_k_suites() == ["consistency"]


def test_kernel_image_catches_a_preimage_shifted_by_one(monkeypatch):
    preimage = PhiFn.coboundary_preimage

    def shifted(self):
        top = preimage(self).top
        return PhiFn(self.chain, top[1:] + top[:1])

    monkeypatch.setattr(PhiFn, "coboundary_preimage", shifted)
    assert _failing_small_k_suites() == ["kernel-image"]
