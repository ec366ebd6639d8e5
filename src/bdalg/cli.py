"""Command-line front end with stable JSON input and output.

Subcommand groups mirror the library modules: sn (supernatural numbers),
zs (odometer truncations), cyc (cyclotomic values), fn (periodic functions),
bd (crossed-product elements), der (derivations), k (K invariants),
hom (Smith form and Ext), plus the `verify` suite runner.

Object-valued options take inline JSON; `--json FILE` (or `-` for stdin)
supplies any missing options from a JSON document whose keys are the option
names.  Unknown keys in that document are rejected.  Output is deterministic
for a fixed request and seed: keys are sorted and floats are emitted with
repr; verify reports additionally carry a wall-clock duration field.

Exit codes: 0 success, 1 invalid input (with a structured error document),
2 verification failure.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .bd_algebra import BDElement, operator_norm, spectrum_sample
from .cyclotomic import Cyclo, root_of_unity
from .derivations import (DerivationData, nonsmooth_commutator, pick_character,
                          recover_covariant, solve_cocycle, decompose_invariant)
from .homalg import IntMatrix, ext1_hom, smith_normal_form
from .k_invariants import PhiFn, hom_obstruction, k0_class, residue_projection
from .odometer_fn import LocConstFn, character
from .profinite import DivisorChain, ProfiniteInt
from .supernatural import SupernaturalNumber
from .verify import SUITES, run_suite


def _dumps(doc, fmt: str) -> str:
    if fmt == "pretty":
        return json.dumps(doc, sort_keys=True, indent=2)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class _Exit2(Exception):
    """Raised to signal a verification failure (exit code 2)."""


def _load_json_file(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _gather(json_file, **inline) -> dict:
    """Merge inline option values with a JSON document; inline wins.

    Inline values arrive as strings and are parsed as JSON (bare words fall
    back to plain strings, so --mode def works without quoting).
    """
    data = {}
    if json_file:
        loaded = _load_json_file(json_file)
        if not isinstance(loaded, dict):
            raise ValueError("--json document must be an object")
        unknown = set(loaded) - set(inline)
        if unknown:
            raise ValueError(f"unknown fields in --json document: {sorted(unknown)}")
        data.update(loaded)
    for name, value in inline.items():
        if value is not None:
            if isinstance(value, str):
                try:
                    value = json.loads(value)
                except json.JSONDecodeError:
                    pass  # keep as a bare string (e.g. mode names, fractions)
            data[name] = value
    return data


def _require(data: dict, *names):
    missing = [n for n in names if n not in data]
    if missing:
        raise ValueError(f"missing required argument(s): {', '.join(missing)}")
    return [data[n] for n in names]


def _as_int(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an integer")
    return v


def _as_fraction(v, name: str) -> Fraction:
    try:
        return Fraction(v) if not isinstance(v, float) else Fraction(str(v))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{name} must be an exact rational: {e}")


def _cyclo_out(c: Cyclo) -> dict:
    return c.to_json()


def _complex_pairs(points) -> list:
    return [[w.real, w.imag] for w in points]


_JSON_OPT = click.option("--json", "json_file", default=None,
                         help="JSON file (or - for stdin) supplying missing options.")
_FMT_OPT = click.option("--format", "fmt", default="compact",
                        type=click.Choice(["pretty", "compact"]))


def _op(group, name):
    """Declare a subcommand that emits one JSON document."""
    def wrap(fn):
        @group.command(name=name, help=fn.__doc__)
        @_JSON_OPT
        @_FMT_OPT
        @click.pass_context
        def _cmd(ctx, json_file, fmt, **kw):
            doc = fn(_gather(json_file, **kw))
            click.echo(_dumps(doc, fmt))
        for par in reversed(getattr(fn, "_cli_params", [])):
            _cmd = par(_cmd)
        return _cmd
    return wrap


def _params(*decls):
    def wrap(fn):
        fn._cli_params = [click.option(f"--{d.replace('_', '-')}", d, default=None)
                          for d in decls]
        return fn
    return wrap


@click.group()
def cli():
    """Exact computer algebra for odometer crossed-product algebras."""


sn = click.Group("sn", help="Supernatural number arithmetic.")
zs = click.Group("zs", help="Truncated odometer ring arithmetic.")
cyc = click.Group("cyc", help="Exact cyclotomic values.")
fn_grp = click.Group("fn", help="Locally constant functions on the odometer.")
bd = click.Group("bd", help="Crossed-product algebra elements.")
der = click.Group("der", help="Derivation data and constructive lemmas.")
kgrp = click.Group("k", help="K-theoretic invariants.")
hom = click.Group("hom", help="Smith normal form and Ext/Hom.")
for g in (sn, zs, cyc, fn_grp, bd, der, kgrp, hom):
    cli.add_command(g)


# -- sn ----------------------------------------------------------------------

@_op(sn, "mul")
@_params("a", "b")
def _sn_mul(d):
    """Product of two supernatural numbers."""
    a, b = _require(d, "a", "b")
    return (SupernaturalNumber.from_json(a) * SupernaturalNumber.from_json(b)).to_json()


@_op(sn, "divides")
@_params("l", "s")
def _sn_divides(d):
    """Whether the integer l divides the supernatural number s."""
    l, s = _require(d, "l", "s")
    return {"divides": SupernaturalNumber.from_json(s).divisible_by(_as_int(l, "l"))}


@_op(sn, "gcd")
@_params("n", "s")
def _sn_gcd(d):
    """Finite gcd of an integer with a supernatural number."""
    n, s = _require(d, "n", "s")
    return {"gcd": SupernaturalNumber.from_json(s).gcd(_as_int(n, "n"))}


@_op(sn, "chain")
@_params("s", "depth")
def _sn_chain(d):
    """Canonical divisor chain of the given depth."""
    s, depth = _require(d, "s", "depth")
    return {"chain": SupernaturalNumber.from_json(s).divisor_chain(_as_int(depth, "depth"))}


# -- zs ----------------------------------------------------------------------

@_op(zs, "embed")
@_params("x", "chain")
def _zs_embed(d):
    """Embed an integer along a divisor chain."""
    x, chain = _require(d, "x", "chain")
    return DivisorChain.from_json(chain).embed(_as_int(x, "x")).to_json()


@_op(zs, "fromresidue")
@_params("r", "l", "chain")
def _zs_fromresidue(d):
    """Digits of the element with the given top-level residue."""
    r, l, chain = _require(d, "r", "l", "chain")
    return DivisorChain.from_json(chain).from_residue(
        _as_int(r, "r"), _as_int(l, "l")).to_json()


@_op(zs, "residue")
@_params("x", "l")
def _zs_residue(d):
    """Residue of a truncated element at a divisor of its top level."""
    x, l = _require(d, "x", "l")
    return {"residue": ProfiniteInt.from_json(x).residue(_as_int(l, "l"))}


@_op(zs, "add")
@_params("x", "y")
def _zs_add(d):
    x, y = _require(d, "x", "y")
    return (ProfiniteInt.from_json(x) + ProfiniteInt.from_json(y)).to_json()


@_op(zs, "neg")
@_params("x")
def _zs_neg(d):
    (x,) = _require(d, "x")
    return (-ProfiniteInt.from_json(x)).to_json()


@_op(zs, "mul")
@_params("x", "y")
def _zs_mul(d):
    x, y = _require(d, "x", "y")
    return (ProfiniteInt.from_json(x) * ProfiniteInt.from_json(y)).to_json()


@_op(zs, "shift")
@_params("x", "m")
def _zs_shift(d):
    """Odometer shift by m (default 1)."""
    (x,) = _require(d, "x")
    return ProfiniteInt.from_json(x).shift(_as_int(d.get("m", 1), "m")).to_json()


# -- cyc ----------------------------------------------------------------------

@_op(cyc, "root")
@_params("k", "n")
def _cyc_root(d):
    """The root of unity zeta_n^k."""
    k, n = _require(d, "k", "n")
    return root_of_unity(_as_int(k, "k"), _as_int(n, "n")).to_json()


@_op(cyc, "add")
@_params("a", "b")
def _cyc_add(d):
    a, b = _require(d, "a", "b")
    return _cyclo_out(Cyclo.from_json(a) + Cyclo.from_json(b))


@_op(cyc, "mul")
@_params("a", "b")
def _cyc_mul(d):
    a, b = _require(d, "a", "b")
    return _cyclo_out(Cyclo.from_json(a) * Cyclo.from_json(b))


@_op(cyc, "conj")
@_params("a")
def _cyc_conj(d):
    (a,) = _require(d, "a")
    return _cyclo_out(Cyclo.from_json(a).conj())


@_op(cyc, "scale")
@_params("a", "c")
def _cyc_scale(d):
    a, c = _require(d, "a", "c")
    return _cyclo_out(Cyclo.from_json(a) * _as_fraction(c, "c"))


@_op(cyc, "iszero")
@_params("a")
def _cyc_iszero(d):
    (a,) = _require(d, "a")
    return {"is_zero": Cyclo.from_json(a).is_zero()}


@_op(cyc, "eval")
@_params("a", "precision")
def _cyc_eval(d):
    """Floating point evaluation (re, im)."""
    (a,) = _require(d, "a")
    z = Cyclo.from_json(a).to_complex(_as_int(d.get("precision", 53), "precision"))
    return {"re": z.real, "im": z.imag}


# -- fn -----------------------------------------------------------------------

@_op(fn_grp, "char")
@_params("l", "k")
def _fn_char(d):
    """The character of period l and index k."""
    l, k = _require(d, "l", "k")
    return character(_as_int(l, "l"), _as_int(k, "k")).to_json()


@_op(fn_grp, "evaluate")
@_params("f", "x")
def _fn_evaluate(d):
    f, x = _require(d, "f", "x")
    return _cyclo_out(LocConstFn.from_json(f).evaluate(ProfiniteInt.from_json(x)))


@_op(fn_grp, "pullback")
@_params("f", "m")
def _fn_pullback(d):
    f, m = _require(d, "f", "m")
    return LocConstFn.from_json(f).pullback(_as_int(m, "m")).to_json()


@_op(fn_grp, "haar")
@_params("f")
def _fn_haar(d):
    (f,) = _require(d, "f")
    return _cyclo_out(LocConstFn.from_json(f).haar_integral())


@_op(fn_grp, "decompose")
@_params("f")
def _fn_decompose(d):
    """Exact character coefficients of a periodic function."""
    (f,) = _require(d, "f")
    coeffs = LocConstFn.from_json(f).char_coefficients()
    return {"coefficients": {str(k): c.to_json() for k, c in sorted(coeffs.items())}}


# -- bd -----------------------------------------------------------------------

@_op(bd, "mul")
@_params("a", "b")
def _bd_mul(d):
    a, b = _require(d, "a", "b")
    return (BDElement.from_json(a) * BDElement.from_json(b)).to_json()


@_op(bd, "adjoint")
@_params("a")
def _bd_adjoint(d):
    (a,) = _require(d, "a")
    return BDElement.from_json(a).adjoint().to_json()


@_op(bd, "delta")
@_params("a")
def _bd_delta(d):
    """The label derivation applied to an element."""
    (a,) = _require(d, "a")
    return BDElement.from_json(a).delta_label().to_json()


@_op(bd, "rho")
@_params("a", "theta")
def _bd_rho(d):
    """The circle action at a rational angle."""
    a, theta = _require(d, "a", "theta")
    return BDElement.from_json(a).circle_action(_as_fraction(theta, "theta")).to_json()


@_op(bd, "fourier")
@_params("a", "n")
def _bd_fourier(d):
    a, n = _require(d, "a", "n")
    return BDElement.from_json(a).fourier_coefficient(_as_int(n, "n")).to_json()


@_op(bd, "symbol")
@_params("a")
def _bd_symbol(d):
    (a,) = _require(d, "a")
    return BDElement.from_json(a).matrix_symbol().to_json()


@_op(bd, "norm")
@_params("a", "m", "grid", "method")
def _bd_norm(d):
    """Norm report with the exact window bracket."""
    (a,) = _require(d, "a")
    return operator_norm(BDElement.from_json(a),
                         m=_as_int(d.get("m", 0), "m"),
                         grid=_as_int(d.get("grid", 256), "grid"),
                         method=d.get("method", "binomial")).to_json()


@_op(bd, "trace")
@_params("a")
def _bd_trace(d):
    (a,) = _require(d, "a")
    return _cyclo_out(BDElement.from_json(a).trace())


@_op(bd, "spectrum")
@_params("a", "grid")
def _bd_spectrum(d):
    """Eigenvalues of the symbol sampled over the circle."""
    (a,) = _require(d, "a")
    pts = spectrum_sample(BDElement.from_json(a), grid=_as_int(d.get("grid", 256), "grid"))
    return {"points": _complex_pairs(pts)}


# -- der -----------------------------------------------------------------------

@_op(der, "apply")
@_params("d", "b")
def _der_apply(data):
    dd, b = _require(data, "d", "b")
    return DerivationData.from_json(dd).apply(BDElement.from_json(b)).to_json()


@_op(der, "component")
@_params("d", "n")
def _der_component(data):
    dd, n = _require(data, "d", "n")
    return DerivationData.from_json(dd).fourier_component(_as_int(n, "n")).to_json()


@_op(der, "cocycle")
@_params("ft")
def _der_cocycle(d):
    """Solve G o beta - G = ft for mean-zero ft."""
    (ft,) = _require(d, "ft")
    return solve_cocycle(LocConstFn.from_json(ft)).to_json()


@_op(der, "decompose")
@_params("f")
def _der_decompose(d):
    """Split F into its mean and a coboundary: F = C + (G o beta - G)."""
    (f,) = _require(d, "f")
    c, g = decompose_invariant(LocConstFn.from_json(f))
    rat = c.as_rational()
    return {"C": str(rat) if rat is not None else c.to_json(), "G": g.to_json()}


@_op(der, "recover")
@_params("n", "l", "k", "delta")
def _der_recover(d):
    n, l, k, delta = _require(d, "n", "l", "k", "delta")
    return recover_covariant(_as_int(n, "n"), _as_int(l, "l"), _as_int(k, "k"),
                             BDElement.from_json(delta)).to_json()


@_op(der, "pickchar")
@_params("n", "s")
def _der_pickchar(d):
    """Character with the certified gap |1 - chi(q(n))| >= 3/2."""
    n, s = _require(d, "n", "s")
    pick = pick_character(_as_int(n, "n"), SupernaturalNumber.from_json(s))
    return {"l": pick.l, "j": pick.j, "bound": pick.bound}


@_op(der, "nonsmooth")
@_params("s", "chain_depth", "terms", "l", "k")
def _der_nonsmooth(d):
    """Truncated non-smooth commutator polynomial."""
    s, depth, terms, l, k = _require(d, "s", "chain_depth", "terms", "l", "k")
    poly = nonsmooth_commutator(SupernaturalNumber.from_json(s),
                                _as_int(depth, "chain_depth"), _as_int(terms, "terms"),
                                _as_int(l, "l"), _as_int(k, "k"))
    return {"laurent": poly.to_json()}


# -- k --------------------------------------------------------------------------

@_op(kgrp, "proj")
@_params("l", "j", "s")
def _k_proj(d):
    """Projection onto the residue class j mod l."""
    l, j, s = _require(d, "l", "j", "s")
    return residue_projection(_as_int(l, "l"), _as_int(j, "j"),
                              SupernaturalNumber.from_json(s)).to_json()


@_op(kgrp, "k0")
@_params("p")
def _k_k0(d):
    """K0 class of a projection (trace pairing)."""
    (p,) = _require(d, "p")
    return {"class": k0_class(BDElement.from_json(p)).to_json()}


@_op(kgrp, "homobstruction")
@_params("l", "a", "chain")
def _k_homobstruction(d):
    l, a, chain = _require(d, "l", "a", "chain")
    return {"witness": hom_obstruction(_as_int(l, "l"), _as_int(a, "a"),
                                       DivisorChain.from_json(chain))}


@_op(kgrp, "phival")
@_params("phi", "l", "k")
def _k_phival(d):
    phi, l, k = _require(d, "phi", "l", "k")
    return {"value": PhiFn.from_json(phi).value(_as_int(l, "l"), _as_int(k, "k"))}


@_op(kgrp, "r")
@_params("phi", "l", "lp", "mode")
def _k_r(d):
    """Running double sum R(l, l') in either convention."""
    phi, l, lp = _require(d, "phi", "l", "lp")
    return {"value": PhiFn.from_json(phi).r_sum(
        _as_int(l, "l"), _as_int(lp, "lp"), d.get("mode", "def"))}


@_op(kgrp, "taurho")
@_params("phi")
def _k_taurho(d):
    (phi,) = _require(d, "phi")
    p = PhiFn.from_json(phi)
    return {"tau": p.tau(), "rho": p.rho().to_json()}


@_op(kgrp, "coboundary")
@_params("phi")
def _k_coboundary(d):
    (phi,) = _require(d, "phi")
    return PhiFn.from_json(phi).coboundary().to_json()


@_op(kgrp, "psi")
@_params("phi")
def _k_psi(d):
    """Preimage under 1 - shift* on the tau-kernel."""
    (phi,) = _require(d, "phi")
    return PhiFn.from_json(phi).coboundary_preimage().to_json()


@_op(kgrp, "digitphi")
@_params("x")
def _k_digitphi(d):
    """The digit construction certifying surjectivity of rho."""
    (x,) = _require(d, "x")
    return PhiFn.from_profinite(ProfiniteInt.from_json(x)).to_json()


# -- hom --------------------------------------------------------------------------

@_op(hom, "snf")
@_params("matrix")
def _hom_snf(d):
    """Smith normal form with unimodular transformations."""
    (mat,) = _require(d, "matrix")
    u, dd, v = smith_normal_form(IntMatrix.from_json(mat))
    return {"U": u.to_json(), "D": dd.to_json(), "V": v.to_json()}


@_op(hom, "ext")
@_params("matrix")
def _hom_ext(d):
    """Hom(G, Z) and Ext^1(G, Z) for G presented by the matrix."""
    (mat,) = _require(d, "matrix")
    h, e = ext1_hom(IntMatrix.from_json(mat))
    return {"hom": h.to_json(), "ext": e.to_json()}


# -- verify -------------------------------------------------------------------------

@cli.command(name="verify")
@click.argument("suite")
@click.option("--seed", default=0, type=int)
@click.option("--scale", default="full", type=click.Choice(["full", "small"]))
@_FMT_OPT
def _verify(suite, seed, scale, fmt):
    """Run a named property suite (or `all`); exits 2 on failure."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    reports = run_suite(suite, seed=seed, scale=scale)
    doc = {"suite": suite, "seed": seed, "scale": scale,
           "passed": all(r.passed for r in reports),
           "cases_run": sum(r.cases_run for r in reports),
           "cases_passed": sum(r.cases_passed for r in reports),
           "duration_s": round(sum(r.duration_s for r in reports), 3),
           "reports": [r.to_json() for r in reports]}
    click.echo(_dumps(doc, fmt))
    if not doc["passed"]:
        raise _Exit2()


def main(argv=None) -> int:
    try:
        rc = cli.main(args=argv, standalone_mode=False)
        return int(rc) if isinstance(rc, int) else 0
    except _Exit2:
        return 2
    except click.exceptions.Exit as e:
        return 0 if e.exit_code == 0 else 1
    except click.exceptions.NoArgsIsHelpError as e:
        click.echo(e.format_message())
        return 0
    except (click.ClickException, ValueError, KeyError, ZeroDivisionError,
            OSError, json.JSONDecodeError) as e:
        msg = e.format_message() if isinstance(e, click.ClickException) else str(e)
        doc = {"error": {"type": type(e).__name__, "message": msg}}
        click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return 1


if __name__ == "__main__":
    sys.exit(main())
