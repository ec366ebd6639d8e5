import json
import subprocess
import sys

import pytest

from bdalg.cli import main


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
FN2 = ('{"period":2,"values":[{"order":1,"terms":[[0,"1"]]},'
       '{"order":1,"terms":[[0,"-1"]]}]}')
BDE = '{"S":[[2,"inf"]],"period":2,"coeffs":{"1":' + FN2 + '}}'
DER = '{"C":"1","G":' + FN2 + ',"covariant":{}}'
PHI = '{"chain":[2,4],"top":[1,-1,2,-2]}'
MAT = '{"rows":2,"cols":2,"entries":[2,0,0,3]}'

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
    ("der", "pickchar", ["--n", "2", "--s", SN]),
    ("der", "nonsmooth", ["--s", '[[2,"inf"]]', "--chain-depth", "5",
                          "--terms", "3", "--l", "4", "--k", "1"]),
    ("k", "proj", ["--l", "2", "--j", "0", "--s", SN]),
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
    assert all(v == {"order": 2, "terms": [[1, "1"]]} for v in values)  # -1


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


def test_byte_identical_output(capsys):
    args = ["fn", "decompose", "--f",
            '{"period":2,"values":[{"order":1,"terms":[[0,"1"]]},'
            '{"order":1,"terms":[[0,"-1"]]}]}']
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc == {"coefficients": {"1": {"order": 2, "terms": [[0, "1"]]}}}


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
])
def test_malformed_document_exit_1(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


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
