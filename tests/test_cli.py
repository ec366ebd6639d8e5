import hashlib
import io
import json
import random
import subprocess
import sys
import time

import pytest

import bdalg
from bdalg import INF, SupernaturalNumber, verify
from bdalg.cli import VERBS, _dumps, main
from bdalg.homalg import IntMatrix
from bdalg.verify import rand_bd


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


SN = '[[2,"inf"],[3,"inf"]]'
PROF = '{"chain":[2,4],"digits":[1,1]}'
CYC = '{"order":4,"terms":[[1,"1"]]}'
ONE = '{"period":1,"values":[{"order":1,"terms":[[0,"1"]]}]}'
FN2 = ('{"period":2,"values":[{"order":1,"terms":[[0,"1"]]},'
       '{"order":1,"terms":[[0,"-1"]]}]}')
BDE = '{"S":[[2,"inf"]],"period":2,"coeffs":{"1":' + FN2 + '}}'
DER = '{"C":"1","G":' + FN2 + ',"covariant":{}}'
PHI = '{"chain":[2,4],"top":[1,-1,2,-2]}'
MAT = '{"rows":2,"cols":2,"entries":[2,0,0,3]}'
PROJ = ('{"S":[[2,"inf"]],"period":2,"coeffs":{"0":{"period":2,"values":'
        '[{"order":1,"terms":[[0,"1"]]},{"order":1,"terms":[]}]}}}')

ALL_VERBS = [
    ("sn", "mul", ["--a", SN, "--b", SN]),
    ("sn", "divides", ["--l", "12", "--s", SN]),
    ("sn", "gcd", ["--n", "10", "--s", SN]),
    ("sn", "chain", ["--s", SN, "--depth", "2"]),
    ("zs", "embed", ["--x", "7", "--chain", "[2,4]"]),
    ("zs", "fromresidue", ["--r", "3", "--l", "4", "--chain", "[2,4]"]),
    ("zs", "residue", ["--x", PROF, "--l", "2"]),
    ("zs", "add", ["--x", PROF, "--y", PROF]),
    ("zs", "neg", ["--x", PROF]),
    ("zs", "mul", ["--x", PROF, "--y", PROF]),
    ("zs", "shift", ["--x", PROF]),
    ("cyc", "root", ["--k", "1", "--n", "8"]),
    ("cyc", "add", ["--a", CYC, "--b", CYC]),
    ("cyc", "mul", ["--a", CYC, "--b", CYC]),
    ("cyc", "conj", ["--a", CYC]),
    ("cyc", "scale", ["--a", CYC, "--c", "3/2"]),
    ("cyc", "iszero", ["--a", CYC]),
    ("cyc", "eval", ["--a", CYC]),
    ("fn", "char", ["--l", "4", "--k", "1"]),
    ("fn", "evaluate", ["--f", FN2, "--x", PROF]),
    ("fn", "pullback", ["--f", FN2, "--m", "1"]),
    ("fn", "haar", ["--f", FN2]),
    ("fn", "decompose", ["--f", FN2]),
    ("bd", "mul", ["--a", BDE, "--b", BDE]),
    ("bd", "adjoint", ["--a", BDE]),
    ("bd", "delta", ["--a", BDE]),
    ("bd", "rho", ["--a", BDE, "--theta", "1/2"]),
    ("bd", "fourier", ["--a", BDE, "--n", "1"]),
    ("bd", "symbol", ["--a", BDE]),
    ("bd", "norm", ["--a", BDE, "--grid", "64"]),
    ("bd", "trace", ["--a", BDE]),
    ("bd", "spectrum", ["--a", BDE, "--grid", "16"]),
    ("der", "apply", ["--d", DER, "--b", BDE]),
    ("der", "component", ["--d", DER, "--n", "0"]),
    ("der", "cocycle", ["--ft", FN2]),
    ("der", "decompose", ["--f", FN2]),
    ("der", "recover", ["--n", "1", "--l", "2", "--k", "1", "--delta", BDE]),
    ("der", "pickchar", ["--n", "2", "--s", SN]),
    ("der", "nonsmooth", ["--s", '[[2,"inf"]]', "--chain-depth", "5",
                          "--terms", "3", "--l", "4", "--k", "1"]),
    ("k", "proj", ["--l", "2", "--j", "0", "--s", SN]),
    ("k", "k0", ["--p", PROJ]),
    ("k", "homobstruction", ["--l", "1", "--a", "4", "--chain", "[2,4,8,16]"]),
    ("k", "phival", ["--phi", PHI, "--l", "2", "--k", "0"]),
    ("k", "r", ["--phi", PHI, "--l", "1", "--lp", "4", "--mode", "def"]),
    ("k", "taurho", ["--phi", '{"chain":[2,4],"top":[1,0,2,0]}']),
    ("k", "coboundary", ["--phi", PHI]),
    ("k", "psi", ["--phi", PHI]),
    ("k", "digitphi", ["--x", PROF]),
    ("hom", "snf", ["--matrix", MAT]),
    ("hom", "ext", ["--matrix", MAT]),
]


@pytest.mark.parametrize("group,verb,args", ALL_VERBS,
                         ids=[f"{g}-{v}" for g, v, _ in ALL_VERBS])
def test_every_verb_dispatches(capsys, group, verb, args):
    code, doc = run_json(capsys, group, verb, *args)
    assert code == 0
    assert isinstance(doc, (dict, list))


def test_all_verbs_cover_the_table():
    assert sorted((g, v) for g, v, _ in ALL_VERBS) == sorted(
        (g, v) for g, verbs in VERBS.items() for v in verbs)


@pytest.mark.parametrize("group,verb", [(g, v) for g, v, _ in ALL_VERBS],
                         ids=[f"{g}-{v}" for g, v, _ in ALL_VERBS])
def test_help_names_options_in_order(capsys, group, verb):
    code, out = run(capsys, group, verb, "--help")
    assert code == 0
    names = [f"--{p[0].replace('_', '-')} " for p in VERBS[group][verb][0]]
    positions = [out.index(n) for n in names + ["--json ", "--format "]]
    assert positions == sorted(positions)


@pytest.mark.parametrize("group,verb,args,explicit", [
    ("zs", "shift", ["--x", PROF], ["--m", "1"]),
    ("cyc", "eval", ["--a", CYC], ["--precision", "53"]),
    ("bd", "norm", ["--a", BDE], ["--m", "0", "--grid", "256", "--method", "binomial"]),
    ("bd", "spectrum", ["--a", BDE], ["--grid", "256"]),
    ("k", "r", ["--phi", PHI, "--l", "1", "--lp", "4"], ["--mode", "def"]),
])
def test_defaults_match_explicit_values(capsys, group, verb, args, explicit):
    code, implicit_out = run(capsys, group, verb, *args)
    assert code == 0
    assert run(capsys, group, verb, *args, *explicit) == (0, implicit_out)


def test_json_document_on_stdin(capsys, monkeypatch):
    doc = {"a": json.loads(BDE), "grid": 64}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, "bd", "norm", "--json", "-", "--m", "1")
    assert code == 0
    assert out == run(capsys, "bd", "norm", "--a", BDE, "--grid", "64", "--m", "1")[1]
    assert json.loads(out)["grid"] == 64


def test_recover_verb(capsys):
    chi4 = {"period": 4, "values": [{"order": 4, "terms": [[0, "1"]]},
                                    {"order": 4, "terms": [[1, "1"]]},
                                    {"order": 4, "terms": [[2, "1"]]},
                                    {"order": 4, "terms": [[3, "1"]]}]}
    dcov = json.dumps({"C": "0", "G": {"period": 1, "values": [{"order": 1, "terms": []}]},
                       "covariant": {"2": chi4}})
    code, delta = run_json(capsys, "der", "apply", "--d", dcov, "--b", json.dumps(
        {"S": [[2, "inf"]], "period": 4, "coeffs": {"0": chi4}}))
    assert code == 0
    code, rec = run_json(capsys, "der", "recover", "--n", "2", "--l", "4",
                         "--k", "1", "--delta", json.dumps(delta))
    assert code == 0
    from bdalg import LocConstFn
    assert LocConstFn.from_json(rec) == LocConstFn.from_json(chi4)


def test_k0_verb(capsys):
    proj = {"S": [[2, "inf"]], "period": 2,
            "coeffs": {"0": {"period": 2,
                             "values": [{"order": 1, "terms": [[0, "1"]]},
                                        {"order": 1, "terms": []}]}}}
    code, doc = run_json(capsys, "k", "k0", "--p", json.dumps(proj))
    assert code == 0 and doc == {"class": "1/2"}


def test_pickchar_command(capsys):
    code, doc = run_json(capsys, "der", "pickchar", "--n", "2",
                         "--s", '[[2,"inf"],[3,"inf"]]')
    assert code == 0
    assert doc == {"l": 4, "j": 1, "bound": 2.0}


def test_digitphi_command(capsys):
    code, doc = run_json(capsys, "k", "digitphi",
                         "--x", '{"chain":[2,4,8],"digits":[1,1,0]}')
    assert code == 0
    assert doc == {"chain": [2, 4, 8], "top": [0, 0, 1, 0, 0, 0, 0, 0]}


def test_bd_mul_dispatch(capsys):
    chi2 = {"period": 2, "values": [{"order": 2, "terms": [[0, "1"]]},
                                    {"order": 2, "terms": [[1, "1"]]}]}
    elt = json.dumps({"S": [[2, "inf"]], "period": 2, "coeffs": {"1": chi2}})
    code, doc = run_json(capsys, "bd", "mul", "--a", elt, "--b", elt)
    assert code == 0
    assert set(doc["coeffs"]) == {"2"}
    values = doc["coeffs"]["2"]["values"]
    assert all(v == {"order": 1, "terms": [[0, "-1"]]} for v in values)  # -1


def test_chain_and_gcd(capsys):
    code, doc = run_json(capsys, "sn", "chain", "--s", '[[2,"inf"],[3,"inf"]]',
                         "--depth", "3")
    assert code == 0 and doc == {"chain": [2, 12, 72]}
    code, doc = run_json(capsys, "sn", "gcd", "--n", "10",
                         "--s", '[[2,"inf"],[3,"inf"]]')
    assert code == 0 and doc == {"gcd": 2}


def test_roundtrip_through_cli(capsys):
    x = {"chain": [2, 6, 24], "digits": [1, 2, 1]}
    code, doc = run_json(capsys, "zs", "shift", "--x", json.dumps(x), "--m", "0")
    assert code == 0 and doc == x
    code, doc = run_json(capsys, "zs", "residue", "--x", json.dumps(x), "--l", "6")
    assert code == 0 and doc == {"residue": 5}


def test_norm_command(capsys):
    elt = {"S": [[2, "inf"]], "period": 2,
           "coeffs": {"0": {"period": 2,
                            "values": [{"order": 1, "terms": [[0, "1"]]},
                                       {"order": 1, "terms": [[0, "-2"]]}]}}}
    code, doc = run_json(capsys, "bd", "norm", "--a", json.dumps(elt))
    assert code == 0
    assert doc["value"] == 2.0 and doc["kind"] == "exact"
    assert doc["window"] == [2.0, 2.0]


@pytest.mark.parametrize("coeffs, m", [
    ('{"0":' + FN2 + ',"1":' + ONE + '}', "3"),  # M_chi + U
    ('{"2":' + FN2 + '}', "0"),  # U^2 M_chi, |chi| = 1
], ids=["m_chi-plus-u", "u2-m_chi"])
def test_norm_value_lies_in_its_window(capsys, coeffs, m):
    elt = '{"S":[[2,"inf"]],"period":2,"coeffs":' + coeffs + '}'
    code, doc = run_json(capsys, "bd", "norm", "--a", elt, "--m", m)
    assert code == 0
    assert doc["window"][0] <= doc["value"] <= doc["window"][1]


def test_hom_commands(capsys):
    code, doc = run_json(capsys, "hom", "ext", "--matrix",
                         '{"rows":1,"cols":1,"entries":[9]}')
    assert code == 0
    assert doc == {"hom": {"rank": 0, "torsion": []},
                   "ext": {"rank": 0, "torsion": [9]}}
    code, doc = run_json(capsys, "hom", "snf", "--matrix",
                         '{"rows":2,"cols":2,"entries":[2,4,6,8]}')
    assert code == 0
    assert doc["D"]["entries"] == [2, 0, 0, 4]
    # U and V are one valid pair of many: check U A V = D, not their entries
    U, A, V, D = (IntMatrix.from_json(m) for m in (
        doc["U"], {"rows": 2, "cols": 2, "entries": [2, 4, 6, 8]}, doc["V"], doc["D"]))
    assert U * A * V == D


def test_byte_identical_output(capsys):
    args = ["fn", "decompose", "--f",
            '{"period":2,"values":[{"order":1,"terms":[[0,"1"]]},'
            '{"order":1,"terms":[[0,"-1"]]}]}']
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc == {"coefficients": {"1": {"order": 1, "terms": [[0, "1"]]}}}


def _symbol_corpus():
    """Seeded elements at periods dividing 12, with labels up to 30 in absolute
    value, so most reach past the period and many are negative; each passes
    through its JSON form, so no value is a zero with raw terms."""
    rng = random.Random(23)
    S = SupernaturalNumber.of({2: INF, 3: INF})
    return [json.dumps(rand_bd(rng, S, (1, 2, 3, 4, 6, 12), max_n=30, max_terms=4).to_json())
            for _ in range(60)]


def _nonsmooth_corpus():
    """Every character (l, k) for l among small divisors of 2^inf and of 2^inf 3^inf."""
    return [["--s", s, "--chain-depth", "6", "--terms", "5", "--l", str(l), "--k", str(k)]
            for s, ls in (('[[2,"inf"]]', (1, 2, 4, 8, 16)),
                          ('[[2,"inf"],[3,"inf"]]', (1, 2, 3, 6, 12, 36)))
            for l in ls for k in range(l)]


def _output_digest(capsys, calls) -> str:
    outs = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 for code, _ in outs)
    return hashlib.sha256("".join(out for _, out in outs).encode()).hexdigest()


# Digests of the output of f0afda4, when the symbol was still a class of its
# own; the plain-data symbol prints the same bytes.
GOLDEN_SYMBOL = "8be8b619c7d59ba0995222e542554985bbda0cc2ffbb86293a7baf9e4838676c"
GOLDEN_NONSMOOTH = "72d3bd5e473084bc18965cc5f2d88dac4b9fcaf73b9c4ba15d7e6c792a97533f"


def test_symbol_and_nonsmooth_are_byte_identical_to_the_pinned_digest(capsys):
    assert _output_digest(capsys, [("bd", "symbol", "--a", a)
                                   for a in _symbol_corpus()]) == GOLDEN_SYMBOL
    assert _output_digest(capsys, [("der", "nonsmooth", *args)
                                   for args in _nonsmooth_corpus()]) == GOLDEN_NONSMOOTH


# Digest of the stdout of every ALL_VERBS call, in table order, taken at c6f32dc
# (Python 3.11, numpy 2.4): value classes built on dataclasses then.
GOLDEN_ALL_VERBS = "4b8471d12c3e619fdf57f731480ae9b572bd122a72d76ca0114dd559fa6d910e"


def test_every_verb_prints_the_pinned_bytes(capsys):
    assert _output_digest(capsys, [(g, v, *args) for g, v, args in ALL_VERBS]) == GOLDEN_ALL_VERBS


def test_equal_elements_print_the_same_symbol(capsys):
    # 1 + zeta_2 is zero, written with raw terms
    outs = [run(capsys, "bd", "symbol", "--a", '{"S":[[2,"inf"]],"period":2,"coeffs":{"1":'
                '{"period":2,"values":[' + zero + ',{"order":1,"terms":[[0,"3"]]}]}}}')
            for zero in ('{"order":2,"terms":[[0,"1"],[1,"1"]]}', '{"order":1,"terms":[]}')]
    assert outs[0] == outs[1] == (0, '{"entries":[[[],[[1,{"order":1,"terms":[[0,"3"]]}]]],'
                                     '[[],[]]],"size":2}\n')


@pytest.mark.parametrize("argv", [
    ("bd", "adjoint", "--a", '{"S":[[2,"inf"]],"period":1,"coeffs":{"1":' + ONE + ',"01":'
     + ONE + '}}'),
    ("der", "apply", "--d", '{"C":"1","G":' + FN2 + ',"covariant":{" 1_0":' + ONE + '}}',
     "--b", BDE),
])
def test_label_keys_that_are_not_canonical_exit_1(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "ValueError" and "label" in doc["error"]["message"]


def test_json_file_input(tmp_path, capsys):
    path = tmp_path / "args.json"
    path.write_text(json.dumps({"l": 4, "k": 1}))
    code, doc = run_json(capsys, "fn", "char", "--json", str(path))
    assert code == 0 and doc["period"] == 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"l": 4, "nonsense": True}))
    code, doc = run_json(capsys, "fn", "char", "--json", str(bad))
    assert code == 1 and "unknown fields" in doc["error"]["message"]


def test_invalid_input_exit_1(capsys):
    code, doc = run_json(capsys, "cyc", "root", "--k", "1", "--n", "0")
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    code, doc = run_json(capsys, "zs", "residue",
                         "--x", '{"chain":[2,4],"digits":[1,1]}', "--l", "3")
    assert code == 1
    code, doc = run_json(capsys, "k", "psi",
                         "--phi", '{"chain":[2,4],"top":[1,0,0,0]}')
    assert code == 1 and "nonzero tau" in doc["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("bd", "mul", "--a", '{"S":[[2,"inf"]],"period":2,"coeffs":[]}', "--b", BDE),
    ("bd", "symbol", "--a", '{"S":[[2,"inf"]],"period":"2","coeffs":{}}'),
    ("bd", "norm", "--a", '{"S":[[2,"inf"]],"period":2,"coeffs":{"1":{"period":1,"values":5}}}'),
    ("cyc", "add", "--a", '{"order":4,"terms":[[1,0.1]]}', "--b", CYC),
    ("cyc", "conj", "--a", '{"order":true,"terms":[]}'),
    ("cyc", "iszero", "--a", '{"order":4,"terms":[[1.7,"1"]]}'),
    ("sn", "mul", "--a", '[[2,true]]', "--b", SN),
    ("sn", "gcd", "--n", "6", "--s", '[[2,1.5]]'),
    ("zs", "embed", "--x", "7", "--chain", "[true,4]"),
    ("zs", "residue", "--x", '{"chain":[2,4],"digits":[1,true]}', "--l", "2"),
    ("k", "phival", "--phi", '{"chain":[2,4],"top":[1,-1,true,-2]}', "--l", "2", "--k", "0"),
    ("hom", "snf", "--matrix", '{"rows":2,"cols":2,"entries":[2,0,0,true]}'),
    ("hom", "ext", "--matrix", '{"rows":true,"cols":1,"entries":[5]}'),
    ("hom", "snf", "--matrix", '{"rows":-1,"cols":-1,"entries":[5]}'),
    ("der", "component", "--d", '{"C":0.1,"G":' + FN2 + ',"covariant":{}}', "--n", "0"),
    ("der", "component", "--d", '{"C":true,"G":' + FN2 + ',"covariant":{}}', "--n", "0"),
    ("der", "apply", "--d", '{"C":"1","G":' + FN2 + ',"covariant":[]}', "--b", BDE),
    ("fn", "haar", "--f", '{"period":true,"values":[{"order":1,"terms":[[0,"1"]]}]}'),
    *[("cyc", "scale", "--a", CYC, "--c", c) for c in ("[1]", "{}", "null", "[[1]]", "true")],
    *[("bd", "rho", "--a", BDE, "--theta", t) for t in ("[1]", "{}", "null", "[[1]]", "true")],
    # a JSON number that is not finite, spelled out or overflowed
    *[("sn", "mul", "--a", f"[[2,{e}]]", "--b", SN) for e in ("Infinity", "1e400", "NaN", "-Infinity")],
    # a decimal exponent beyond the int-string digit limit, refused before 10^e is built
    *[("cyc", "iszero", "--a", '{"order":1,"terms":[[0,"%s"]]}' % c)
      for c in ("1e10000000", "-1e-10000000", "1e4301")],
    # a side above the size cap, refused before any row is built
    *[("hom", verb, "--matrix", m) for verb in ("snf", "ext")
      for m in ('{"rows":1000000000,"cols":0,"entries":[]}',
                '{"rows":0,"cols":1000000000,"entries":[]}')],
])
def test_malformed_document_exit_1(capsys, argv):
    t0 = time.perf_counter()
    code, doc = run_json(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


def test_decimal_exponent_at_the_digit_limit_reads(capsys):
    for c in ("1e4300", "1e-4300", "2.5E+3"):
        code, doc = run_json(capsys, "cyc", "iszero", "--a", '{"order":1,"terms":[[0,"%s"]]}' % c)
        assert code == 0 and doc == {"is_zero": False}


@pytest.mark.parametrize("terms", ['[[0,"1"],[0,"-1"]]', '[[0,"1"],[2,"-1"]]'],
                         ids=["same-exponent", "same-exponent-mod-order"])
def test_repeated_exponents_are_summed(capsys, terms):
    code, doc = run_json(capsys, "cyc", "iszero", "--a", '{"order":2,"terms":' + terms + '}')
    assert code == 0 and doc == {"is_zero": True}


def test_json_file_refuses_an_infinite_number(capsys, tmp_path):
    doc_file = tmp_path / "args.json"
    doc_file.write_text('{"a":[[2,Infinity]],"b":' + SN + '}')
    code, doc = run_json(capsys, "sn", "mul", "--json", str(doc_file))
    assert code == 1 and doc["error"]["type"] == "ValueError"


def test_missing_argument_exit_1(capsys):
    code, doc = run_json(capsys, "sn", "gcd", "--n", "10")
    assert code == 1
    assert "missing" in doc["error"]["message"]


def test_unknown_suite_exit_1(capsys):
    code, doc = run_json(capsys, "verify", "nope")
    assert code == 1


def test_verify_small_suite(capsys):
    code, doc = run_json(capsys, "verify", "rho-onto", "--seed", "7",
                         "--scale", "small")
    assert code == 0
    assert doc["passed"] is True
    assert doc["reports"][0]["suite"] == "rho-onto"
    assert doc["reports"][0]["cases_run"] == doc["reports"][0]["cases_passed"] == 47


def test_verify_deterministic_counts(capsys):
    _, doc1 = run_json(capsys, "verify", "consistency", "--seed", "7", "--scale", "small")
    _, doc2 = run_json(capsys, "verify", "consistency", "--seed", "7", "--scale", "small")
    r1, r2 = doc1["reports"][0], doc2["reports"][0]
    for key in ("cases_run", "cases_passed", "first_counterexample", "statement"):
        assert r1[key] == r2[key]


def test_verify_all_goes_on_after_a_check_raises(capsys, monkeypatch):
    def raising(p):
        raise ValueError("not a projection")

    monkeypatch.setattr(verify, "k0_class", raising)
    code, doc = run_json(capsys, "verify", "all", "--seed", "7", "--scale", "small")
    assert code == 2
    assert [r["suite"] for r in doc["reports"]] == list(verify.SUITES)
    k0 = [r for r in doc["reports"] if not r["passed"]]
    assert [r["suite"] for r in k0] == ["k0"]
    assert (k0[0]["cases_run"], k0[0]["cases_passed"]) == (1, 0)
    assert k0[0]["first_counterexample"] == {"error": "ValueError",
                                             "message": "not a projection"}


def test_bare_invocation_shows_help(capsys):
    code, out = run(capsys)
    assert code == 0
    assert out.startswith("Usage:")
    code, out = run(capsys, "k")
    assert code == 0 and "digitphi" in out


def test_pretty_format(capsys):
    code, out = run(capsys, "sn", "gcd", "--n", "9", "--s", '[[3,"inf"]]',
                    "--format", "pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out) == {"gcd": 9}


def test_pickchar_has_no_max_h(capsys):
    code, doc = run_json(capsys, "der", "pickchar", "--n", "2", "--s", SN, "--max-h", "5")
    assert code == 1
    assert "max-h" in doc["error"]["message"]


@pytest.mark.parametrize("verb,arg,want", [
    ("divides", "--l", {"divides": False}),
    ("gcd", "--n", {"gcd": 1}),
])
def test_sn_large_integer_is_fast(verb, arg, want):
    # 10^18 + 3 is prime: trial division up to its square root would not finish
    proc = subprocess.run(
        [sys.executable, "-m", "bdalg", "sn", verb, arg, "1000000000000000003",
         "--s", '[[2,"inf"],[3,"inf"]]'],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == want


def test_sn_large_prime_factor_is_fast():
    # 10^18 + 3 is prime: trial division up to its square root would not finish
    proc = subprocess.run(
        [sys.executable, "-m", "bdalg", "sn", "mul", "--a", "[[1000000000000000003,1]]",
         "--b", "[[2,1]]"], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [[2, 1], [1000000000000000003, 1]]


def test_sn_chain_large_prime_is_fast():
    proc = subprocess.run(
        [sys.executable, "-m", "bdalg", "sn", "chain", "--s", "[[1000003,1]]", "--depth", "1"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"chain": [1000003]}


def test_sn_chain_prime_above_limit_exit_1():
    proc = subprocess.run(
        [sys.executable, "-m", "bdalg", "sn", "chain", "--s", "[[10000019,1]]", "--depth", "1"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["error"]["type"] == "ValueError" and "too large" in doc["error"]["message"]


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bdalg.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sn_chain_refuses_a_large_depth():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bdalg", "sn", "chain", "--s", '[[2,"inf"]]',
         "--depth", "100000000"], capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["error"] == {"type": "ValueError", "message": "depth above 1000"}


@pytest.mark.parametrize("precision", ["0", "-5"])
def test_cyc_eval_refuses_a_precision_below_one_bit(capsys, precision):
    code, doc = run_json(capsys, "cyc", "eval", "--a", CYC, "--precision", precision)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


def modules_after(*argvs) -> set:
    """The bdalg modules, and numpy if loaded, after a fresh interpreter
    imports bdalg.cli and runs main on each argv in turn."""
    code = ("import json, sys\n"
            "from bdalg.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    main(list(argv))\n"
            "print(json.dumps([m for m in sys.modules\n"
            "                  if m in ('bdalg', 'numpy') or m.startswith('bdalg.')]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_sn_verb_loads_only_supernatural():
    assert modules_after(("sn", "gcd", "--n", "10", "--s", SN)) == {
        "bdalg", "bdalg.cli", "bdalg.supernatural"}


def test_hom_verb_loads_neither_the_algebra_nor_verify():
    loaded = modules_after(("hom", "snf", "--matrix", MAT))
    assert "bdalg.homalg" in loaded
    assert not loaded & {"bdalg.bd_algebra", "bdalg.verify"}


def test_numpy_loads_only_for_the_numeric_verbs():
    exact = [(g, v, *a) for g, v, a in ALL_VERBS if (g, v) not in {
        ("bd", "norm"), ("bd", "spectrum")}]
    assert "numpy" not in modules_after(*exact)
    # a one-term norm is the one point of its window, so nothing is sampled
    assert "numpy" not in modules_after(("bd", "norm", "--a", BDE, "--m", "2"))
    two = '{"S":[[2,"inf"]],"period":2,"coeffs":{"0":' + FN2 + ',"1":' + FN2 + '}}'
    assert "numpy" in modules_after(("bd", "norm", "--a", two))


def test_every_exported_name_resolves():
    ns = {}
    exec("from bdalg import *", ns)
    assert set(bdalg.__all__) <= set(ns)
    assert ns["SupernaturalNumber"] is sys.modules["bdalg.supernatural"].SupernaturalNumber
    assert ns["run_suite"] is verify.run_suite


def test_dir_lists_the_exports():
    assert set(bdalg.__all__) <= set(dir(bdalg))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        bdalg.nope


def test_dumps_prints_integers_beyond_the_digit_limit():
    assert _dumps({"d": 10 ** 4999}, "compact") == '{"d":1' + "0" * 4999 + "}"
    assert _dumps([10 ** 4999], "pretty") == "[\n  1" + "0" * 4999 + "\n]"


def test_hom_snf_prints_a_long_diagonal(capsys):
    # diag(10^2500 + 1, 10^2500) has the Smith form diag(1, 10^5000 + 10^2500)
    a = "1" + "0" * 2499 + "1"
    b = "1" + "0" * 2500
    code, out = run(capsys, "hom", "snf", "--matrix",
                    '{"rows":2,"cols":2,"entries":[' + a + ",0,0," + b + "]}")
    assert code == 0
    assert '"D":{"cols":2,"entries":[1,0,0,1' + "0" * 2499 + "1" + "0" * 2500 + "]" in out


def test_long_integer_input_still_exits_1(capsys):
    code, out = run(capsys, "hom", "snf", "--matrix",
                    '{"rows":1,"cols":1,"entries":[1' + "0" * 4999 + "]}")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


SHIFT = '{"S":[[2,"inf"]],"period":1,"coeffs":{"1":' + ONE + '}}'


@pytest.mark.parametrize("args", [
    ("--a", SHIFT, "--grid", "1000000000"),
    ("--a", SHIFT, "--m", "100000"),
    # label 10^9 reaches z^(10^9), so the grid would be 2 * 10^9 + 1 points
    ("--a", '{"S":[[2,"inf"]],"period":1,"coeffs":{"1000000000":' + ONE + '}}'),
])
def test_bd_norm_refuses_oversized_sampling(args):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bdalg", "bd", "norm", *args],
                          capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"


BIG = "1" + "0" * 400  # 10^400 overflows a float


@pytest.mark.parametrize("argv", [
    # the weight 100000^64 of the top level overflows a float
    ("bd", "norm", "--a", '{"S":[[2,"inf"]],"period":1,"coeffs":{"100000":' + ONE + '}}',
     "--m", "64"),
    ("cyc", "eval", "--a", '{"order":1,"terms":[[0,"' + BIG + '"]]}'),
    ("bd", "norm", "--a", '{"S":[[2,"inf"]],"period":1,"coeffs":{"1":{"period":1,"values":'
     '[{"order":1,"terms":[[0,"' + BIG + '"]]}]}}}'),
])
def test_float_overflow_exits_1_with_the_error_document(argv):
    proc = subprocess.run([sys.executable, "-m", "bdalg", *argv],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "OverflowError"


@pytest.mark.parametrize("argv", [
    ("sn", "gcd", "--n", "10", "--s", SN, "--bogus", "1"),  # unknown option
    ("sn", "gcd", "--n", "10", "--s"),  # an option with no value
    ("sn", "gcd", "--n", "10", "--s", SN, "--format", "weird"),
    ("nope", "gcd", "--n", "10"),  # unknown group
    ("sn", "nope", "--n", "10"),  # unknown verb
    ("sn", "gcd", "--n", "10", "--s", SN, "extra"),  # extra positional argument
    ("verify", "all", "--seed", "x"),
    ("verify", "all", "--scale", "medium"),
    ("verify",),  # no suite
    ("--format", "pretty"),  # the root takes no options
], ids=["unknown-option", "no-value", "bad-format", "unknown-group", "unknown-verb",
        "extra-positional", "bad-seed", "bad-scale", "no-suite", "root-option"])
def test_usage_error_is_one_error_line(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_equals_form_matches_separate_value(capsys):
    _, spaced = run(capsys, "sn", "gcd", "--n", "9", "--s", '[[3,"inf"]]')
    assert run(capsys, "sn", "gcd", "--n=9", "--s=[[3,\"inf\"]]") == (0, spaced)
    assert run(capsys, "sn", "gcd", "--n=9", "--s", '[[3,"inf"]]', "--format=compact") == (
        0, spaced)


def test_repeated_option_keeps_the_last_value(capsys):
    code, doc = run_json(capsys, "sn", "gcd", "--n", "3", "--s", '[[3,"inf"]]', "--n", "9")
    assert code == 0 and doc == {"gcd": 9}


def test_option_value_may_start_with_a_dash(capsys):
    code, doc = run_json(capsys, "zs", "embed", "--x", "-1", "--chain", "[2,4]")
    assert code == 0 and doc == {"chain": [2, 4], "digits": [1, 1]}


def test_verify_help_lists_its_options(capsys):
    code, out = run(capsys, "verify", "--help")
    assert code == 0 and out.startswith("Usage:")
    assert all(f"--{name} " in out for name in ("seed", "scale", "format"))


def test_verb_help_describes_json(capsys):
    code, out = run(capsys, "sn", "chain", "--help")
    assert code == 0 and "JSON file (or - for stdin) supplying missing options." in out
    assert "--help          Show this message and exit." in out


def test_help_option_at_the_root_and_group_levels(capsys):
    code, out = run(capsys, "--help")
    assert code == 0 and out.startswith("Usage:") and "verify" in out
    code, out = run(capsys, "bd", "--help")
    assert code == 0 and out.startswith("Usage:") and "spectrum" in out


def test_cli_import_does_not_load_click():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bdalg.cli; print('click' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
