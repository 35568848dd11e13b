"""CLI behaviour: exit codes, determinism, JSON output."""

import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from phinabla import modules
from phinabla.cli import main
from helpers import count_calls


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_analyze_kt(capsys):
    code, out, err = run(capsys, "analyze", str(CORPUS / "kummer_tate.json"))
    assert code == 0
    assert "compatibility: OK" in out
    assert "quasi-purity at weight 1: PASS" in out
    assert err == ""


def test_analyze_json_mode(capsys):
    code, out, _ = run(capsys, "--json", "analyze",
                       str(CORPUS / "kummer_tate.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["compatible"] is True
    assert obj["quasi_pure"] is True
    assert obj["wd"]["inertia_order"] == 1


def test_analyze_weight_flag(capsys):
    code, out, _ = run(capsys, "analyze", "--weight", "3",
                       str(CORPUS / "kummer_tate.json"))
    assert code == 0
    assert "quasi-purity at weight 3: FAIL" in out


def test_wd_half_twist(capsys):
    code, out, _ = run(capsys, "--json", "wd",
                       str(CORPUS / "half_twist.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["inertia"]["order"] == 2


def test_wd_wild_is_domain_error(capsys):
    code, _out, err = run(capsys, "wd", str(CORPUS / "wild.json"))
    assert code == 3
    obj = json.loads(err)
    assert obj["error"] == "NotTame"


def test_wd_high_precision_matches_default(capsys):
    # p^500 overflows a float square root in rational reconstruction
    path = str(CORPUS / "kummer_tate.json")
    code, out, err = run(capsys, "--precision", "500", "--t-window", "64",
                         "wd", path)
    assert code == 0, err
    _, default_out, _ = run(capsys, "wd", path)

    def result(text):
        return [ln for ln in text.splitlines() if ln.startswith("result:")]
    assert result(out) and result(out) == result(default_out)


def test_reduction_verdicts(capsys):
    for name, verdict in (("good_elliptic.json", "GOOD"),
                          ("tate_abelian.json", "SEMISTABLE_NOT_GOOD"),
                          ("bad_reduction.json", "NOT_SEMISTABLE")):
        code, out, _ = run(capsys, "reduction", str(CORPUS / name))
        assert code == 0
        assert f"verdict: {verdict}" in out


def test_reduction_ranks_in_json(capsys):
    code, out, _ = run(capsys, "--json", "reduction",
                       str(CORPUS / "tate_abelian.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["ranks"] == {"n": 1, "mu": 1, "alpha": 0, "lambda": 0}


def test_reduction_without_pairing_has_no_ranks(capsys, tmp_path):
    # the Tate datum has a horizontal section, so its profile needs the pairing
    obj = json.loads((CORPUS / "tate_abelian.json").read_text())
    del obj["pairing"]
    path = tmp_path / "tate_no_pairing.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "reduction", str(path))
    assert code == 0
    assert "verdict: SEMISTABLE_NOT_GOOD" in out
    assert "ranks: unavailable (no pairing)" in out
    code, out, _ = run(capsys, "--json", "reduction", str(path))
    assert code == 0 and "ranks" not in json.loads(out)


def test_excision_open_curve(capsys):
    code, out, _ = run(capsys, "excision",
                       str(CORPUS / "open_tate_curve.json"))
    assert code == 0
    assert "verdict: OK" in out
    assert "Gr_2: rank 1" in out


def test_excision_proper_curve(capsys):
    code, out, _ = run(capsys, "excision",
                       str(CORPUS / "proper_tate_curve.json"))
    assert code == 0
    assert "Gr_2: rank 0 (empty)" in out


def test_excision_with_impure_gr1_fails(capsys, tmp_path):
    # the rank-2 trivial module as H^1: its Frobenius weights are 0, not 1
    obj = json.loads((CORPUS / "open_tate_curve.json").read_text())
    h1 = obj["h1_compact"]
    h1["frobenius"] = [[{"terms": [[0, "1"]] if i == j else []}
                        for j in range(2)] for i in range(2)]
    h1["connection"] = [[{"terms": []} for _ in range(2)] for _ in range(2)]
    path = tmp_path / "open_trivial_h1.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "excision", str(path))
    assert code == 0
    assert "Gr_1: rank 2, quasi-pure of weight 1: FAIL" in out
    assert "verdict: FAIL" in out
    code, out, _ = run(capsys, "--json", "excision", str(path))
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "FAIL"
    assert report["graded"][0]["quasi_pure"] is False


def test_compat_family(capsys):
    code, out, _ = run(capsys, "compat", str(CORPUS / "family_tate.json"))
    assert code == 0
    assert "verdict: COMPATIBLE" in out


def test_compat_mismatch(capsys, tmp_path):
    fam = json.loads((CORPUS / "family_tate.json").read_text())
    # replace one member by the unramified rep with the same Phi
    fam["members"][1]["N"] = [["0", "0"], ["0", "0"]]
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps(fam))
    code, out, _ = run(capsys, "compat", str(bad))
    assert code == 0
    assert "INCOMPATIBLE" in out


def test_compat_members_must_be_a_list(capsys, tmp_path):
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps({"members": {}}))
    code, out, err = run(capsys, "compat", str(bad))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input",
                               "detail": '"members" must be a list'}


def _set(path, value):
    def change(fam):
        node = fam
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return change


@pytest.mark.parametrize("change, detail", [
    (_set(("members", 1, "phi", 1, 1), "1/0"), "zero denominator"),
    (_set(("members", 1), [1, 2]), "must be a JSON object"),
    (_set(("members", 1, "convention"), "geometrc"), "unknown convention"),
    (_set(("members", 1, "phi", 1), ["5"]), '"phi" must be a 2 x 2'),
    (_set(("members", 1, "N"), [["0", "1"]]), '"N" must be a 2 x 2'),
    (_set(("members", 1, "q"), "5"), "is not a prime power"),
    # a prime q is read at once, however large; Phi = diag(1, 5) fails it
    (_set(("members", 1, "q"), 2 ** 61 - 1), "Phi N Phi^-1 != q^eps N"),
    (_set(("members", 1, "inertia"), [1]), '"inertia" must be'),
    (_set(("members", 1, "inertia", "order"), 1.5), '"inertia.order"'),
    (lambda fam: fam["members"][1].pop("q"), 'missing "q"'),
], ids=["zero-denominator", "list-member", "unknown-convention",
        "ragged-phi", "short-N", "string-q", "large-prime-q",
        "list-inertia", "float-order", "missing-q"])
def test_malformed_compat_member_names_it(capsys, tmp_path, change, detail):
    fam = json.loads((CORPUS / "family_tate.json").read_text())
    change(fam)
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps(fam))
    code, out, err = run(capsys, "compat", str(bad))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "input"
    assert error["detail"].startswith("members[1]: ")
    assert detail in error["detail"]


@pytest.mark.parametrize("sub, stem, change, detail", [
    ("reduction", "tate_abelian", _set(("pairing",), [[]]),
     '"pairing" must be a 2 x 2 matrix'),
    ("reduction", "tate_abelian", _set(("pairing", 0), []),
     '"pairing" must be a 2 x 2 matrix'),
    ("reduction", "tate_abelian", _set(("pairing", 1), {}),
     '"pairing" must be a list of rows'),
    ("reduction", "good_elliptic", lambda obj: obj["pairing"][1].pop(),
     '"pairing" must be a 2 x 2 matrix'),
    ("excision", "open_tate_curve", _set(("boundary_map",), [[]]),
     '"boundary_map" must be a 1 x 2 matrix'),
    ("excision", "open_tate_curve", _set(("boundary_map", 0), []),
     '"boundary_map" must be a 1 x 2 matrix'),
    ("excision", "open_tate_curve", _set(("boundary_map", 0), {}),
     '"boundary_map" must be a list of rows'),
    ("excision", "open_tate_curve", lambda obj: obj["boundary_map"][0].pop(),
     '"boundary_map" must be a 1 x 2 matrix'),
    # an empty map is not the zero map from H^0(D)(-1) of rank 2
    ("excision", "open_tate_curve", _set(("boundary_map",), []),
     '"boundary_map" must be a 1 x 2 matrix'),
], ids=["pairing-empty-row", "pairing-row-empty", "pairing-row-object",
        "pairing-entry-dropped", "boundary-empty-row", "boundary-row-empty",
        "boundary-row-object", "boundary-entry-dropped", "boundary-empty"])
def test_ragged_matrix_is_input_error(capsys, tmp_path, sub, stem, change,
                                      detail):
    obj = json.loads((CORPUS / f"{stem}.json").read_text())
    change(obj)
    bad = tmp_path / f"{stem}.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, sub, str(bad))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "detail": detail}


@pytest.mark.parametrize("stem, path, value, detail", [
    ("constant_trivial", ("rank",), True, '"rank" = True is not an integer'),
    ("kummer_tate", ("rank",), 2.0, '"rank" = 2.0 is not an integer'),
    ("kummer_tate", ("params", "a"), True, "a = True is not an integer"),
    ("kummer_tate", ("params", "p"), 5.0, "p = 5.0 is not an integer"),
    ("kummer_tate", ("params",), {"p": 5, "a": 2, "modulus": [2, 0, True]},
     "modulus [2, 0, True] has a non-integer entry"),
], ids=["rank-true", "rank-float", "a-true", "p-float", "modulus-true"])
def test_non_integer_json_value_is_input_error(capsys, tmp_path, stem, path,
                                               value, detail):
    # JSON true is not the integer 1, nor 2.0 the integer 2
    obj = json.loads((CORPUS / f"{stem}.json").read_text())
    _set(path, value)(obj)
    bad = tmp_path / f"{stem}.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "detail": detail}


@pytest.mark.parametrize("sub, stem, where", [
    ("analyze", "kummer_tate", ()), ("wd", "kummer_tate", ()),
    ("reduction", "tate_abelian", ("module",)),
    ("excision", "open_tate_curve", ("h1_compact",))])
@pytest.mark.parametrize("key", ["precision", "t_window"])
@pytest.mark.parametrize("value", [2.0, "x", [1.5, 3]],
                         ids=["float", "string", "float-pair"])
def test_file_ring_is_checked_as_the_library_checks_it(capsys, tmp_path, sub,
                                                       stem, where, key,
                                                       value):
    # the flags set precision and window, but a file that module_from_json
    # refuses is refused here too
    obj = json.loads((CORPUS / f"{stem}.json").read_text())
    _set(where + ("params", key), value)(obj)
    bad = tmp_path / f"{stem}.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, sub, str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("mode", ["power_series", "bogus"])
def test_ring_mode_other_than_laurent_is_input_error(capsys, tmp_path, mode):
    obj = json.loads((CORPUS / "constant_trivial.json").read_text())
    obj["params"]["ring_mode"] = mode
    bad = tmp_path / "constant_trivial.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "input" and "params.ring_mode" in err["detail"]


@pytest.mark.parametrize("flags, mode", [([], "text"), (["--json"], "json")])
def test_absent_ring_mode_reads_as_laurent(capsys, tmp_path, flags, mode):
    obj = json.loads((CORPUS / "constant_trivial.json").read_text())
    del obj["params"]["ring_mode"]
    path = tmp_path / "constant_trivial.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *flags, "analyze", str(path))
    golden = (CORPUS.parent / "bench" / "golden"
              / f"analyze.constant_trivial.{mode}.stdout")
    assert code == 0 and err == ""
    assert out.encode() == golden.read_bytes()


def test_analyze_rank_zero_has_no_weights(capsys, tmp_path):
    obj = json.loads((CORPUS / "constant_trivial.json").read_text())
    obj.update(rank=0, frobenius=[], connection=[])
    path = tmp_path / "rank_zero.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    # the level is read off the extraction's filtration
    assert "unipotence level: 0" in out
    assert "WD: dim=0 N-rank=0 inertia order=1 weights={}" in out
    assert "quasi-purity at weight 1: PASS" in out
    code, out, err = run(capsys, "--json", "analyze", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["unipotent"] is True and report["unipotence_level"] == 0
    assert report["wd"]["dim"] == 0 and report["wd"]["phi_weights"] == []
    assert report["quasi_pure"] is True


def test_analyze_reads_a_module_that_is_not_unipotent(capsys, tmp_path):
    # t G = t without a Frobenius: its only solution is the power series
    # exp(-t), so there is no log basis
    obj = json.loads((CORPUS / "constant_trivial.json").read_text())
    del obj["frobenius"]
    obj["connection"] = [[{"terms": [[0, "1"]]}]]
    path = tmp_path / "exp_t.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert "unipotence level: NOT_UNIPOTENT" in out
    code, out, err = run(capsys, "--json", "analyze", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["unipotent"] is False and report["unipotence_level"] is None


def test_analyze_refuses_a_truncated_frobenius_as_wd_does(capsys, tmp_path):
    # analyze reads the unipotence level off the extraction, so a t^40 term
    # past the window stops both at the extraction's first check
    obj = json.loads((CORPUS / "kummer_tate.json").read_text())
    obj["frobenius"][1][1]["terms"].append([40, "1"])
    path = tmp_path / "kt_truncated.json"
    path.write_text(json.dumps(obj))
    for command in ("analyze", "wd"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "WindowTooSmall",
            "detail": "Frobenius matrix truncated; cannot trust its image"}


def test_analyze_without_frobenius_reads_its_residue_once(capsys, tmp_path,
                                                         monkeypatch):
    # the report's residue record is handed to the filtration, so the
    # residue and R's Jordan structure are each read once
    obj = json.loads((CORPUS / "kummer_tate.json").read_text())
    del obj["frobenius"]
    path = tmp_path / "kt_connection_only.json"
    path.write_text(json.dumps(obj))
    codes = []

    def analyze():
        codes.append(main(["analyze", str(path)]))

    assert count_calls(monkeypatch, modules, "_residue", analyze) == 1
    assert count_calls(monkeypatch, modules, "_jordan_blocks", analyze) == 1
    out = capsys.readouterr().out
    assert codes == [0, 0]
    assert "residue exponents: 0, 0 (semisimple: no)" in out
    assert "unipotence level: 2" in out


@pytest.mark.parametrize("terms, error, detail", [
    ([[32, "1"]], "WindowTooSmall",
     "connection matrix truncated; cannot trust the coefficient equations"),
    # the residue is read first, so its refusal comes first
    ([[32, "1"], [-2, "1"]], "IrregularSingularity",
     "connection has a pole of order > 1 at t = 0"),
], ids=["truncated", "irregular-and-truncated"])
def test_analyze_without_frobenius_keeps_its_refusal_order(
        capsys, tmp_path, terms, error, detail):
    obj = json.loads((CORPUS / "kummer_tate.json").read_text())
    del obj["frobenius"]
    obj["connection"][0][1]["terms"] += terms
    path = tmp_path / "kt_connection_only.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": error, "detail": detail}


def test_inertia_order_without_matrix_is_compared(capsys, tmp_path):
    fam = json.loads((CORPUS / "family_tate.json").read_text())
    fam["members"][1]["inertia"] = {"order": 37, "matrix": None}
    bad = tmp_path / "family_order_37.json"
    bad.write_text(json.dumps(fam))
    code, out, _ = run(capsys, "compat", str(bad))
    assert code == 0
    assert ("verdict: INCOMPATIBLE at member 1, entry ('inertia', 'order'): "
            "37 != 1") in out
    code, out, _ = run(capsys, "--json", "compat", str(bad))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "INCOMPATIBLE"
    assert report["witness"] == {"member": 1, "entry": "('inertia', 'order')",
                                 "value": "37", "reference": "1"}


def test_compat_reads_each_piece_to_its_dimension(capsys, tmp_path):
    # T^7 - 128 and T^7 + 128 at q = 4 agree in Tr(Phi^n) for n < 7
    def member(c):      # companion matrix of T^7 + c, N = 0
        phi = [[str(int(i == j + 1)) for j in range(6)]
               + [str(-c if i == 0 else 0)] for i in range(7)]
        return {"q": 4, "phi": phi, "N": [["0"] * 7 for _ in range(7)]}
    path = tmp_path / "roots_of_128.json"
    path.write_text(json.dumps({"members": [member(-128), member(128)]}))
    code, out, _ = run(capsys, "compat", str(path))
    assert code == 0
    assert "members: 2, depth n <= 7" in out
    assert "INCOMPATIBLE at member 1, entry (0, 7)" in out
    code, out, _ = run(capsys, "--json", "compat", str(path))
    assert json.loads(out)["nmax"] == 7


def test_unramified_input_is_read(capsys, tmp_path):
    from phinabla.modules import PhiNablaModule, module_to_json
    from phinabla.padic import RingParams
    params = RingParams(5, 20, (32, 32), 2, (2, 0, 1))
    m = PhiNablaModule.from_rational_matrices(
        params, connection=[[0, {-1: 1}], [0, 0]], label="kt_a2")
    path = tmp_path / "kt_a2.json"
    path.write_text(json.dumps(module_to_json(m)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "unipotence level: 2" in out


def test_unramified_kt_is_analyzed(capsys, tmp_path):
    from phinabla import corpus
    from phinabla.modules import module_to_json
    from phinabla.padic import RingParams
    params = RingParams(5, 20, (32, 32), a=2, modulus=(2, 0, 1))
    path = tmp_path / "kt_a2.json"
    path.write_text(json.dumps(module_to_json(corpus.kummer_tate(params))))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0, err
    assert "compatibility: OK" in out
    assert "quasi-purity at weight 1: PASS" in out


@pytest.mark.parametrize("seed", [34, 35, 42, 48, 50, 56, 59])
def test_sheared_kt_is_analyzed(capsys, tmp_path, seed):
    # iterated quotient gauges refused these shears of Kummer-Tate as
    # "connection matrix truncated", although wd answered
    from helpers import random_shear_gauge
    from phinabla import corpus
    from phinabla.modules import module_to_json
    m = corpus.kummer_tate()
    m = random_shear_gauge(random.Random(seed), corpus.ring(), 2,
                           lowest=0).apply(m)
    path = tmp_path / "kt.json"
    path.write_text(json.dumps(module_to_json(m)))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0, err
    assert "unipotence level: 2" in out


def test_missing_file_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "/nonexistent/nope.json"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert json.loads(cap.err)["error"] == "parse"


def test_malformed_json_is_parse_error(capsys, tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(p)])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [
    "[]",
    '{"params": "x", "rank": 1, "connection": [[0]]}',
    '{"params": {"p": 5}, "rank": 1, '
    '"connection": [[{"terms": [[-1, "1/0"]]}]]}',
    # exponents are JSON integers: 0.5 is not t^0, true is not t^1
    '{"params": {"p": 5}, "rank": 1, '
    '"connection": [[{"terms": [[0.5, "1"]]}]]}',
    '{"params": {"p": 5}, "rank": 1, '
    '"connection": [[{"terms": [[true, "1"]]}]]}',
    # x^2 + 4 = (x - 1)(x + 1) mod 5 defines no field
    '{"params": {"p": 5, "a": 2, "modulus": [4, 0, 1]}, "rank": 1, '
    '"connection": [[{"terms": []}]]}',
])
def test_malformed_module_is_input_error(capsys, tmp_path, text):
    path = tmp_path / "module.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "input"
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("sub, stem, path", [
    # a datum where a module is expected
    ("analyze", "tate_abelian", "params.p"),
    ("wd", "open_tate_curve", "params.p"),
    # a module where a datum is expected
    ("reduction", "kummer_tate", "module.params.p"),
    ("excision", "kummer_tate", "h1_compact.params.p"),
    ("compat", "kummer_tate", "members"),
])
def test_wrong_shape_names_missing_path(capsys, sub, stem, path):
    code, out, err = run(capsys, sub, str(CORPUS / f"{stem}.json"))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "detail": f'missing "{path}"'}


@pytest.mark.parametrize("sub, stem", [
    ("wd", "kummer_tate"), ("analyze", "kummer_tate"),
    ("excision", "open_tate_curve"),
])
@pytest.mark.parametrize("mmax", ["0", "-3"])
def test_mmax_below_one_is_input_error(capsys, sub, stem, mmax):
    # a bad flag value, like --precision 0, not a NotTame verdict
    code, out, err = run(capsys, "--mmax", mmax, sub,
                         str(CORPUS / f"{stem}.json"))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "detail": "m_max must be >= 1"}


@pytest.mark.parametrize("key, path", [
    ("rank", "rank"),
    ("params", "params.p"),
])
def test_missing_module_key_is_named(capsys, tmp_path, key, path):
    obj = json.loads((CORPUS / "kummer_tate.json").read_text())
    del obj[key]
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(obj))
    code, _out, err = run(capsys, "wd", str(bad))
    assert code == 2
    assert json.loads(err)["detail"] == f'missing "{path}"'


# every (subcommand, corpus file) the CLI answers, and the values the
# fuzz test puts in place of one JSON value
FUZZ_CALLS = [
    ("analyze", "constant_trivial"), ("analyze", "good_elliptic_h1"),
    ("wd", "half_twist"), ("analyze", "kummer_tate"), ("wd", "wild"),
    ("reduction", "bad_reduction"), ("reduction", "good_elliptic"),
    ("reduction", "tate_abelian"), ("excision", "open_tate_curve"),
    ("excision", "proper_tate_curve"), ("compat", "family_tate")]
DROP = "<drop>"
FUZZ_VALUES = [DROP, None, True, False, 0, 1, -1, 2, 3, 37, 2 ** 61 - 1,
               0.5, "", "x", "1/0", "1/2", [], {}, [[]], [[0, "1"]],
               {"terms": []}]


def _json_paths(node, path=()):
    """The path of every value inside a JSON object."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, value in items:
        out += [path + (key,)] + _json_paths(value, path + (key,))
    return out


@st.composite
def corpus_mutations(draw):
    sub, stem = draw(st.sampled_from(FUZZ_CALLS))
    obj = json.loads((CORPUS / f"{stem}.json").read_text())
    return (sub, stem, draw(st.sampled_from(_json_paths(obj))),
            draw(st.sampled_from(FUZZ_VALUES)))


@settings(max_examples=200, deadline=None)
@given(corpus_mutations())
@example(("reduction", "tate_abelian", ("pairing",), [[]]))
@example(("reduction", "tate_abelian", ("pairing", 0), {}))
@example(("reduction", "good_elliptic", ("pairing", 1, 0), DROP))
@example(("excision", "open_tate_curve", ("boundary_map", 0), []))
@example(("excision", "open_tate_curve", ("boundary_map", 0, 1), DROP))
@example(("analyze", "kummer_tate", ("params", "a"), 0))
@example(("analyze", "kummer_tate", ("params", "a"), 2))
@example(("analyze", "kummer_tate", ("connection", 0, 1), DROP))
@example(("excision", "open_tate_curve", ("h2_compact", "params"), "x"))
def test_one_value_mutation_exits_0_2_or_3(tmp_path_factory, mutation):
    sub, stem, path, value = mutation
    obj = json.loads((CORPUS / f"{stem}.json").read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    mutated = tmp_path_factory.getbasetemp() / "mutated.json"
    mutated.write_text(json.dumps(obj))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["--t-window", "8", sub, str(mutated)])
        except SystemExit as exc:     # unreadable JSON exits 2 at once
            code = exc.code
    assert code in (0, 2, 3), mutation


def _fresh_interpreter(*argv, stdout=subprocess.PIPE):
    """Run python with src/ on PYTHONPATH from the repository root."""
    src = str(CORPUS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *argv], cwd=CORPUS.parent,
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


def test_cli_never_imports_sympy():
    # the eigen-weights of analyze and excision are the only place sympy
    # was ever used, and the weight oracle the only user of mpmath; a fresh
    # interpreter shows what the CLI loads
    script = (
        "import sys; from phinabla.cli import main; "
        "assert main(['analyze', 'corpus/kummer_tate.json']) == 0; "
        "assert main(['excision', 'corpus/open_tate_curve.json']) == 0; "
        "print('sympy' in sys.modules, 'mpmath' in sys.modules)")
    done = _fresh_interpreter("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"


def test_cli_import_skips_dataclasses_and_inspect():
    # -S keeps site hooks of the host out of the check
    done = _fresh_interpreter("-S", "-c", (
        "import sys, phinabla.cli; print(sorted(m for m in "
        "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_large_prime_is_read_quickly(tmp_path):
    obj = json.loads((CORPUS / "kummer_tate.json").read_text())
    obj["params"]["p"] = 2 ** 61 - 1
    path = tmp_path / "kt_big_p.json"
    path.write_text(json.dumps(obj))
    done = _fresh_interpreter("-m", "phinabla.cli", "analyze", str(path))
    assert done.returncode in (0, 2, 3), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "corpus/kummer_tate.json"],
    ["--json", "wd", "corpus/kummer_tate.json"]], ids=["analyze", "wd-json"])
def test_closed_stdout_exits_cleanly(argv):
    # stdout a pipe whose reader has gone, as in `phinabla ... | head -0`:
    # the command keeps its exit code and prints no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        done = _fresh_interpreter("-m", "phinabla.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 0 and done.stderr == ""


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "--json", "analyze",
                        str(CORPUS / "kummer_tate.json"))
        outs.append(out)
    assert outs[0] == outs[1]


def test_arithmetic_convention(capsys):
    code, out, _ = run(capsys, "--json", "--convention", "arithmetic",
                       "analyze", str(CORPUS / "kummer_tate.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["convention"] == "arithmetic"
    # the arithmetic Frobenius matrix is the inverse of the geometric one,
    # so the intrinsic weights agree across conventions
    assert obj["wd"]["phi_weights"] == ["0", "2"]


def test_selftest_green(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "5/5 checks passed" in out


@pytest.mark.parametrize("flag, value, detail", [
    ("--precision", "0", "coefficient precision N must be >= 1"),
    ("--precision", "-3", "coefficient precision N must be >= 1"),
    ("--t-window", "0", "t_window must satisfy M_neg >= 0, M_pos >= 1"),
])
def test_selftest_bad_ring_flag_is_input_error(capsys, flag, value, detail):
    # the flag is refused before any check runs, as by every subcommand
    code, out, err = run(capsys, flag, value, "selftest")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "detail": detail}
