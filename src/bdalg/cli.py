"""Command-line front end with stable JSON input and output.

The groups mirror the library modules: sn (supernatural numbers), zs
(odometer truncations), cyc (cyclotomic values), fn (periodic functions), bd
(crossed-product elements), der (derivations), k (K invariants), hom (Smith
form and Ext); `verify SUITE [--seed N] [--scale full|small]` runs the seeded
suites of `bdalg.verify`.

Every verb is one entry of the table `VERBS`: group -> verb -> (params,
function, help).  A param is (name, reader) or (name, reader, default); the
name is the option (`--chain-depth` for chain_depth) and the key in a `--json`
document.  A reader is `_as_int`, `_as_fraction`, `_raw`, or the dotted name
"module.Class" of a library class whose `from_json` parses the value; the
function is a callable or the dotted name of a library function.  Dotted
names are resolved when the verb runs, so a call imports only the modules its
verb uses, and a wrapper installed on a module attribute (a profiler) sees it.

`main` matches argv against the table with the standard library alone.  An
option is `--opt value` or `--opt=value`; given twice, its last value counts.
Values are JSON (text that is not JSON stays a string); `--json FILE` (`-` for
stdin) supplies missing options from a JSON object keyed by option name.  The
result is printed with `to_json()` applied, keys sorted and floats in repr
(`--format pretty|compact`).  Exit codes: 0 success, 1 invalid input, usage
errors included, with the document {"error": {"type", "message"}} (a usage
error is a ValueError), 2 verification failure.
"""
from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction


def _dumps(doc, fmt: str) -> str:
    """The JSON text of a result.  Integers print in full however long: the int-to-str
    digit limit is lifted while the output is written, not while the input is parsed."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(_plain(doc), sort_keys=True,
                          **({"indent": 2} if fmt == "pretty" else {"separators": (",", ":")}))
    finally:
        sys.set_int_max_str_digits(limit)


def _value(text: str):
    """An option's text read as JSON; text that is not JSON (a bare word such
    as a mode name, a fraction) stays a string, so it needs no quoting."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _gather(json_file, **inline) -> dict:
    """Merge the option texts given inline with a JSON document; inline wins."""
    data = {}
    if json_file == "-":
        data = json.load(sys.stdin)
    elif json_file:
        with open(json_file) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--json document must be an object")
    if set(data) - set(inline):
        raise ValueError(f"unknown fields in --json document: {sorted(set(data) - set(inline))}")
    return {**data, **{name: _value(text) for name, text in inline.items() if text is not None}}


def _as_int(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an integer")
    return v


def _as_fraction(v, name: str) -> Fraction:
    """An int, a "p/q" or decimal string, or a float read by its decimal repr."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"{name} must be an exact rational")
    try:
        return Fraction(v) if not isinstance(v, float) else Fraction(str(v))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{name} must be an exact rational: {e}")


def _raw(v, name: str):
    """The JSON value as given; the library validates it."""
    return v


def _lib(path: str):
    """The library object named "module.attr", importing bdalg.module on first use."""
    module, _, attr = path.partition(".")
    return getattr(importlib.import_module(f".{module}", __package__), attr)


def _read(reader, v, name: str):
    return _lib(reader).from_json(v) if isinstance(reader, str) else reader(v, name)


def _plain(v):
    """The JSON form of a result: to_json() wherever a value has one."""
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


def _laurent(terms: dict) -> list:
    """A Laurent polynomial {power: Cyclo} as its [power, value] pairs, powers ascending."""
    return [[p, terms[p].to_json()] for p in sorted(terms)]


def _re_im(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _mean_and_coboundary(c, g) -> dict:
    rat = c.as_rational()
    return {"C": str(rat) if rat is not None else c, "G": g}


# A function that takes the params as they are is given by its dotted name
# alone.  Short reader names keep each entry to a line or two.
_SN, _DC, _ZS, _FN, _BD, _PHI, _CYC, _DER, _MAT = (
    "supernatural.SupernaturalNumber", "profinite.DivisorChain", "profinite.ProfiniteInt",
    "odometer_fn.LocConstFn", "bd_algebra.BDElement", "k_invariants.PhiFn",
    "cyclotomic.Cyclo", "derivations.DerivationData", "homalg.IntMatrix")
_INT = _as_int

VERBS = {
    "sn": {
        "mul": ((("a", _SN), ("b", _SN)), lambda a, b: a * b,
                "Product of two supernatural numbers."),
        "divides": ((("l", _INT), ("s", _SN)), lambda l, s: {"divides": s.divisible_by(l)},
                    "Whether the integer l divides the supernatural number s."),
        "gcd": ((("n", _INT), ("s", _SN)), lambda n, s: {"gcd": s.gcd(n)},
                "Finite gcd of an integer with a supernatural number."),
        "chain": ((("s", _SN), ("depth", _INT)),
                  lambda s, depth: {"chain": s.divisor_chain(depth)},
                  "Canonical divisor chain of the given depth."),
    },
    "zs": {
        "embed": ((("x", _INT), ("chain", _DC)), lambda x, chain: chain.embed(x),
                  "Embed an integer along a divisor chain."),
        "fromresidue": ((("r", _INT), ("l", _INT), ("chain", _DC)),
                        lambda r, l, chain: chain.from_residue(r, l),
                        "Digits of the element with the given top-level residue."),
        "residue": ((("x", _ZS), ("l", _INT)), lambda x, l: {"residue": x.residue(l)},
                    "Residue of a truncated element at a divisor of its top level."),
        "add": ((("x", _ZS), ("y", _ZS)), lambda x, y: x + y, None),
        "neg": ((("x", _ZS),), lambda x: -x, None),
        "mul": ((("x", _ZS), ("y", _ZS)), lambda x, y: x * y, None),
        "shift": ((("x", _ZS), ("m", _INT, 1)), lambda x, m: x.shift(m),
                  "Odometer shift by m (default 1)."),
    },
    "cyc": {
        "root": ((("k", _INT), ("n", _INT)), "cyclotomic.root_of_unity",
                 "The root of unity zeta_n^k."),
        "add": ((("a", _CYC), ("b", _CYC)), lambda a, b: a + b, None),
        "mul": ((("a", _CYC), ("b", _CYC)), lambda a, b: a * b, None),
        "conj": ((("a", _CYC),), lambda a: a.conj(), None),
        "scale": ((("a", _CYC), ("c", _as_fraction)), lambda a, c: a * c, None),
        "iszero": ((("a", _CYC),), lambda a: {"is_zero": a.is_zero()}, None),
        "eval": ((("a", _CYC), ("precision", _INT, 53)),
                 lambda a, precision: _re_im(a.to_complex(precision)),
                 "Floating point evaluation (re, im)."),
    },
    "fn": {
        "char": ((("l", _INT), ("k", _INT)), "odometer_fn.character",
                 "The character of period l and index k."),
        "evaluate": ((("f", _FN), ("x", _ZS)), lambda f, x: f.evaluate(x), None),
        "pullback": ((("f", _FN), ("m", _INT)), lambda f, m: f.pullback(m), None),
        "haar": ((("f", _FN),), lambda f: f.haar_integral(), None),
        "decompose": ((("f", _FN),), lambda f: {"coefficients": {
            str(k): c for k, c in sorted(f.char_coefficients().items())}},
                      "Exact character coefficients of a periodic function."),
    },
    "bd": {
        "mul": ((("a", _BD), ("b", _BD)), lambda a, b: a * b, None),
        "adjoint": ((("a", _BD),), lambda a: a.adjoint(), None),
        "delta": ((("a", _BD),), lambda a: a.delta_label(),
                  "The label derivation applied to an element."),
        "rho": ((("a", _BD), ("theta", _as_fraction)), lambda a, theta: a.circle_action(theta),
                "The circle action at a rational angle."),
        "fourier": ((("a", _BD), ("n", _INT)), lambda a, n: a.fourier_coefficient(n), None),
        "symbol": ((("a", _BD),), lambda a: {"size": a.period, "entries": [
            [_laurent(e) for e in row] for row in a.matrix_symbol()]}, None),
        "norm": ((("a", _BD), ("m", _INT, 0), ("grid", _INT, 256), ("method", _raw, "binomial")),
                 "bd_algebra.operator_norm",
                 "Norm report with the exact window bracket."),
        "trace": ((("a", _BD),), lambda a: a.trace(), None),
        "spectrum": ((("a", _BD), ("grid", _INT, 256)), lambda a, grid: {"points": [
            [w.real, w.imag] for w in _lib("bd_algebra.spectrum_sample")(a, grid=grid)]},
                     "Eigenvalues of the symbol sampled over the circle."),
    },
    "der": {
        "apply": ((("d", _DER), ("b", _BD)), lambda d, b: d.apply(b), None),
        "component": ((("d", _DER), ("n", _INT)), lambda d, n: d.fourier_component(n), None),
        "cocycle": ((("ft", _FN),), "derivations.solve_cocycle",
                    "Solve G o beta - G = ft for mean-zero ft."),
        "decompose": ((("f", _FN),), lambda f: _mean_and_coboundary(
            *_lib("derivations.decompose_invariant")(f)),
                      "Split F into its mean and a coboundary: F = C + (G o beta - G)."),
        "recover": ((("n", _INT), ("l", _INT), ("k", _INT), ("delta", _BD)),
                    "derivations.recover_covariant", None),
        "pickchar": ((("n", _INT), ("s", _SN)), lambda n, s: dict(zip(
            ("l", "j", "bound"), _lib("derivations.pick_character")(n, s))),
                     "Character with the certified gap |1 - chi(q(n))| >= 3/2."),
        "nonsmooth": ((("s", _SN), ("chain_depth", _INT), ("terms", _INT), ("l", _INT),
                       ("k", _INT)),
                      lambda s, depth, terms, l, k: {"laurent": _laurent(_lib(
                          "derivations.nonsmooth_commutator")(s, depth, terms, l, k))},
                      "Truncated non-smooth commutator polynomial."),
    },
    "k": {
        "proj": ((("l", _INT), ("j", _INT), ("s", _SN)), "k_invariants.residue_projection",
                 "Projection onto the residue class j mod l."),
        "k0": ((("p", _BD),), lambda p: {"class": _lib("k_invariants.k0_class")(p)},
               "K0 class of a projection (trace pairing)."),
        "homobstruction": ((("l", _INT), ("a", _INT), ("chain", _DC)), lambda l, a, chain: {
            "witness": _lib("k_invariants.hom_obstruction")(l, a, chain)}, None),
        "phival": ((("phi", _PHI), ("l", _INT), ("k", _INT)),
                   lambda phi, l, k: {"value": phi.value(l, k)}, None),
        "r": ((("phi", _PHI), ("l", _INT), ("lp", _INT), ("mode", _raw, "def")),
              lambda phi, l, lp, mode: {"value": phi.r_sum(l, lp, mode)},
              "Running double sum R(l, l') in either convention."),
        "taurho": ((("phi", _PHI),), lambda phi: {"tau": phi.tau(), "rho": phi.rho()}, None),
        "coboundary": ((("phi", _PHI),), lambda phi: phi.coboundary(), None),
        "psi": ((("phi", _PHI),), lambda phi: phi.coboundary_preimage(),
                "Preimage under 1 - shift* on the tau-kernel."),
        "digitphi": ((("x", _ZS),), lambda x: _lib(_PHI).from_profinite(x),
                     "The digit construction certifying surjectivity of rho."),
    },
    "hom": {
        "snf": ((("matrix", _MAT),), lambda m: dict(zip(
            "UDV", _lib("homalg.smith_normal_form")(m))),
                "Smith normal form with unimodular transformations."),
        "ext": ((("matrix", _MAT),), lambda m: dict(zip(
            ("hom", "ext"), _lib("homalg.ext1_hom")(m))),
                "Hom(G, Z) and Ext^1(G, Z) for G presented by the matrix."),
    },
}

_ROOT_HELP = "Exact computer algebra for odometer crossed-product algebras."
_GROUP_HELP = {
    "sn": "Supernatural number arithmetic.",
    "zs": "Truncated odometer ring arithmetic.",
    "cyc": "Exact cyclotomic values.",
    "fn": "Locally constant functions on the odometer.",
    "bd": "Crossed-product algebra elements.",
    "der": "Derivation data and constructive lemmas.",
    "k": "K-theoretic invariants.",
    "hom": "Smith normal form and Ext/Hom.",
}

_COMMANDS = {**_GROUP_HELP, "verify": "Run a named property suite (or `all`); exits 2 on failure."}
_FORMAT = {"--format": "[compact|pretty]"}
_JSON = {"--json": "FILE|-  JSON file (or - for stdin) supplying missing options."}


def _help(usage: str, about, heading: str, rows) -> None:
    """Print a help page (the usage line, the description, a table); exit 0."""
    sys.stdout.write(f"Usage: {usage}\n" + (f"\n  {about}\n" if about else "") + f"\n{heading}:\n"
                     + "".join(f"  {left:<16}{text or ''}".rstrip() + "\n" for left, text in rows))
    raise SystemExit(0)


def _pick(argv: list, prog: str, about, entries: dict) -> str:
    """The command argv names in `entries`; the help for none or --help."""
    if argv and argv[0] in entries:
        return argv[0]
    if argv and argv[0] != "--help":
        raise ValueError(f"no such {'option' if argv[0][:1] == '-' else 'command'}: {argv[0]}")
    _help(f"{prog} [OPTIONS] COMMAND [ARGS]...", about, "Commands", sorted(entries.items()))


def _parse(argv: list, usage: str, about, flags: dict, nargs: int = 0) -> tuple:
    """The options (flag -> last value) and the `nargs` positional arguments of argv,
    or the help for --help.  `flags` maps each --flag to its metavar ("[a|b]" for a
    choice); a flag takes the text after `=` or the next argument, whatever it is."""
    opts, args, rest = {}, [], iter(argv)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if not arg.startswith("-") or arg == "-":
            args.append(arg)
        elif arg == "--help":
            _help(usage, about, "Options", [*flags.items(), ("--help", "Show this message and exit.")])
        elif flag not in flags:
            raise ValueError(f"no such option: {flag}")
        elif not eq and (value := next(rest, None)) is None:
            raise ValueError(f"option {flag} requires a value")
        elif flags[flag][0] == "[" and value not in flags[flag][1:-1].split("|"):
            raise ValueError(f"{flag} must be one of {flags[flag]}, not {value!r}")
        else:
            opts[flag] = value
    if len(args) != nargs:
        raise ValueError(f"expected {nargs} positional argument(s), got {len(args)}: {args}")
    return opts, args


def _run(prog: str, params: tuple, fn, about, argv: list) -> int:
    """Run one table entry on its options and print its document."""
    names = {f"--{name.replace('_', '-')}": name for name, *_ in params}
    opts, _ = _parse(argv, f"{prog} [OPTIONS]", about,
                     {**dict.fromkeys(names, "TEXT"), **_JSON, **_FORMAT})
    call = _lib(fn) if isinstance(fn, str) else fn
    data = _gather(opts.get("--json"), **{name: opts.get(flag) for flag, name in names.items()})
    if missing := [name for name, _, *default in params if not default and name not in data]:
        raise ValueError(f"missing required argument(s): {', '.join(missing)}")
    args = [_read(reader, data.get(name, *default), name) for name, reader, *default in params]
    sys.stdout.write(_dumps(call(*args), opts.get("--format", "compact")) + "\n")
    return 0


def _verify(argv: list) -> int:
    """Run a named suite (or `all`) and print its report; 2 if a case failed."""
    opts, (suite,) = _parse(argv, "bdalg verify [OPTIONS] SUITE", _COMMANDS["verify"], {
        "--seed": "INTEGER", "--scale": "[full|small]", **_FORMAT}, nargs=1)
    seed, scale = _as_int(_value(opts.get("--seed", "0")), "--seed"), opts.get("--scale", "full")
    reports = _lib("verify.run_suite")(suite, seed=seed, scale=scale)
    doc = {"suite": suite, "seed": seed, "scale": scale, "passed": all(r.passed for r in reports),
           "cases_run": sum(r.cases_run for r in reports),
           "cases_passed": sum(r.cases_passed for r in reports),
           "duration_s": round(sum(r.duration_s for r in reports), 3),
           "reports": [r.to_json() for r in reports]}
    sys.stdout.write(_dumps(doc, opts.get("--format", "compact")) + "\n")
    return 0 if doc["passed"] else 2


def main(argv=None) -> int:
    """Run one call on its arguments (sys.argv[1:] by default); the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        group = _pick(argv, "bdalg", _ROOT_HELP, _COMMANDS)
        if group == "verify":
            return _verify(argv[1:])
        verb = _pick(argv[1:], f"bdalg {group}", _GROUP_HELP[group],
                     {verb: entry[2] for verb, entry in VERBS[group].items()})
        return _run(f"bdalg {group} {verb}", *VERBS[group][verb], argv[2:])
    except SystemExit as done:  # a help page was printed
        return done.code
    except (ValueError, KeyError, ZeroDivisionError, OverflowError, OSError) as e:
        doc = {"error": {"type": type(e).__name__, "message": str(e)}}
        sys.stdout.write(_dumps(doc, "compact") + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
