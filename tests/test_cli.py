import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from saitoforms import cli
from saitoforms.brieskorn import reduce_class
from saitoforms.cli import SCHEMA, main
from saitoforms.mpoly import MPoly
from saitoforms.parsing import parse_poly
from saitoforms.singularity import analyze


def run_cli(capsys, tmp_path, job, extra=()):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path)] + list(extra))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_cusp(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "analyze",
           "singularity": {"variables": ["x", "y"], "f": "x^3 + y^4",
                           "weights": ["1/3", "1/4"]}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["ok"] is True and doc["command"] == "analyze"
    res = doc["result"]
    assert res["mu"] == 6
    assert res["central_charge"] == "5/6"
    assert len(res["degrees"]) == 6
    assert all(v != "0" for v in res["anti_diagonal_residues"])


def test_moduli_chain(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "moduli",
           "singularity": {"variables": ["z"], "f": "z^5",
                           "weights": ["1/5"]}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"]["dimension"] == 0
    assert doc["result"]["constraints"] == []


def test_moduli_elliptic_with_constraint(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "moduli",
           "singularity": {"variables": ["z1", "z2", "z3"],
                           "f": "1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3",
                           "weights": ["1/3", "1/3", "1/3"]}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"]["dimension"] == 1
    frees = [c for c in doc["result"]["constraints"]
             if c["status"] == "FREE"]
    assert frees == [{"pair": [8, 1], "r": 1, "status": "FREE"}]


def test_moduli_p1_mirror(capsys, tmp_path):
    # the mirror's grading is den = 1, scaled = [0, 1]: the one slot (2, 1)
    # has gap 1 and lies on the anti-diagonal with an odd gap
    job = {"schema": SCHEMA, "command": "moduli",
           "singularity": {"model": "p1", "q": "2"}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"] == {
        "dimension": 1,
        "constraints": [{"pair": [2, 1], "r": 1, "status": "FREE"}]}


def test_analyze_p1_mirror(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "analyze",
           "singularity": {"model": "p1", "q": "2"}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"] == {"mu": 2, "central_charge": "1",
                             "degrees": ["0", "1"], "basis": ["1", "2*z^-1"],
                             "q": "2"}


def test_primitive_form_chain_trivial(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": {"variables": ["z"], "f": "z^4",
                           "weights": ["1/4"]},
           "N": 4}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    recs = doc["result"]["records"]
    assert recs == [{"t": 0, "basis": 1, "basis_expr": "1",
                     "terms": [{"u": "1", "value": "1"}]}]


def test_primitive_form_masked_with_set_c(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": {"variables": ["z1", "z2", "z3"],
                           "f": "1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3",
                           "weights": ["1/3", "1/3", "1/3"]},
           "N": 6, "mask": [8]}
    code0, doc0 = run_cli(capsys, tmp_path, job)
    code1, doc1 = run_cli(capsys, tmp_path, job, extra=["--set-c", "8,1=1"])
    assert code0 == 0 and code1 == 0
    # the splitting parameter changes the series
    assert doc0["result"]["records"] != doc1["result"]["records"]
    # sigma^3 coefficient of 1/g is 1/6
    t3 = [t for t in doc0["result"]["records"][0]["terms"]
          if t["u"] == "u8^3"]
    assert t3 and t3[0]["value"] == "1/6"


def test_main_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    # main builds its parser once per process; flags given to one call
    # must not reach the next
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": {"variables": ["z1", "z2", "z3"],
                           "f": "1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3",
                           "weights": ["1/3", "1/3", "1/3"]},
           "N": 4, "mask": [8]}
    code, plain = run_cli(capsys, tmp_path, job)
    assert code == 0 and plain["result"]["N"] == 4
    code, split = run_cli(capsys, tmp_path, job,
                          extra=["--set-c", "8,1=1", "--order", "6"])
    assert code == 0 and split["result"]["N"] == 6
    assert run_cli(capsys, tmp_path, job) == (0, plain)
    code, order6 = run_cli(capsys, tmp_path, job, extra=["--order", "6"])
    assert code == 0 and order6["result"]["N"] == 6
    assert order6["result"]["records"] != split["result"]["records"]
    # a malformed job after a good one still gets the error document
    code, doc = run_cli(capsys, tmp_path, {"command": "analyze"})
    assert code == 2 and doc["ok"] is False
    assert doc["error"]["type"] == "JobError"
    # a bad flag still exits through argparse
    for extra in (["--order", "x"], ["--frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            main(["--job", str(tmp_path / "job.json")] + extra)
        assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, tmp_path, job) == (0, plain)
    assert len(built) == 1


def test_pairing_global_model(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "pairing",
           "singularity": {"model": "p1", "q": "2"}, "t_order": 6,
           "pairs": [["1", "q*z^-1"], ["1", "1"], ["z^2", "1"]]}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    values = doc["result"]["values"]
    assert values[0]["series"] == {"0": "-1"}
    assert values[1]["series"] == {}
    # [z^2] = q [1] - t [z] and [z] = [q/z], so K(z^2, 1) = -t K(q/z, 1)
    # = t: Saito's convention K(t a, b) = t K(a, b)
    assert values[2]["series"] == {"1": "1"}


def test_pairing_of_a_two_variable_singularity(capsys, tmp_path):
    # the t^0 part of K(phi_i, phi_(mu+1-i)) is the residue pairing that
    # analyze reports
    e12 = {"variables": ["x", "y"], "f": "x^3 + y^7",
           "weights": ["1/3", "1/7"]}
    code, doc = run_cli(capsys, tmp_path, {
        "schema": SCHEMA, "command": "analyze", "singularity": e12})
    assert code == 0
    basis = doc["result"]["basis"]
    residues = doc["result"]["anti_diagonal_residues"]
    code, doc = run_cli(capsys, tmp_path, {
        "schema": SCHEMA, "command": "pairing", "singularity": e12,
        "pairs": [[a, b] for a, b in zip(basis, reversed(basis))]})
    assert code == 0
    assert [value["series"] for value in doc["result"]["values"]] == \
        [{"0": r} for r in residues]


def test_verify_roundtrip(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "verify",
           "singularity": {"variables": ["x", "y"], "f": "x^3 + y^4",
                           "weights": ["1/3", "1/4"]},
           "N": 4}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"]["verified"] is True


def test_parse_error_document(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "analyze",
           "singularity": {"variables": ["x"], "f": "(x + 1)/3",
                           "weights": ["1/3"]}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "ParseError"
    assert "/" in doc["error"]["message"]


def test_unknown_command_error(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "frobnicate",
           "singularity": {"variables": ["z"], "f": "z^3",
                           "weights": ["1/3"]}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["error"]["type"] == "JobError"


def test_output_sorted_and_stable(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "analyze",
           "singularity": {"variables": ["z"], "f": "z^3",
                           "weights": ["1/3"]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    main(["--job", str(path)])
    first = capsys.readouterr().out
    main(["--job", str(path)])
    second = capsys.readouterr().out
    assert first == second
    assert first == json.dumps(json.loads(first), indent=2,
                               sort_keys=True) + "\n"


@pytest.mark.parametrize("f, weight, pair, residue", [
    ("z^3", "1/3", ["z", "1"], "1/3"),
    ("5*z^4", "1/4", ["z^2", "1"], "1/20"),
    ("1/3*z^3", "1/3", ["z", "1"], "1"),
])
def test_pairing_scales_with_leading_coefficient(capsys, tmp_path, f, weight,
                                                 pair, residue):
    # K(z^(m-1), 1) at t^0 is the classical residue of z^(m-1) dz / f',
    # which is 1/lead for f' = lead z^m
    job = {"schema": SCHEMA, "command": "pairing",
           "singularity": {"variables": ["z"], "f": f, "weights": [weight]},
           "t_order": 4, "pairs": [pair]}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"]["values"][0]["series"] == {"0": residue}


@pytest.mark.parametrize("job", [[1, 2], 3, "x", None])
@pytest.mark.parametrize("extra", [(), ("--command", "analyze")])
def test_non_object_job_is_rejected(capsys, tmp_path, job, extra):
    code, doc = run_cli(capsys, tmp_path, job, extra)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "JobError"


@pytest.mark.parametrize("f, m, lead", [
    ("z^3", 2, 3), ("5*z^4", 3, 20), ("2/7*z^5", 4, Fraction(10, 7)),
])
def test_pairing_matches_lattice_reduction(capsys, tmp_path, f, m, lead):
    # K(a, 1) = sum_k t^k K(v_k, 1) over the reduced class sum_k t^k v_k
    # of a, and K(v, 1) is the classical residue of v: its z^(m-1)
    # coefficient over the leading coefficient of f'
    data = analyze(parse_poly(f, ("z",)), [Fraction(1, m + 1)])
    powers = range(3 * (m + 1))
    job = {"schema": SCHEMA, "command": "pairing",
           "singularity": {"variables": ["z"], "f": f,
                           "weights": ["1/%d" % (m + 1)]},
           "pairs": [["z^%d" % i, "1"] for i in powers]}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    for i, value in zip(powers, doc["result"]["values"]):
        red = reduce_class(data, MPoly.monomial(("z",), (i,)))
        want = {}
        for k, vec in red.coeffs.items():
            v = sum(c * b.terms.get((m - 1,), 0)
                    for c, b in zip(vec, data.basis))
            if v:
                want[str(k)] = str(v / lead)
        assert value["series"] == want


ELLIPTIC = {"variables": ["z1", "z2", "z3"],
            "f": "1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3",
            "weights": ["1/3", "1/3", "1/3"]}
CHAIN = {"variables": ["z"], "f": "z^4", "weights": ["1/4"]}


@pytest.mark.parametrize("singularity, extra, job_c, slot", [
    # index 0 used to wrap to the last basis element, c(8,1)
    (ELLIPTIC, {"mask": [8]}, None, "0,1"),
    (CHAIN, {}, None, "8,1"),
    (CHAIN, {}, {"1,4": "1"}, None),
])
def test_c_slot_out_of_range_is_rejected(capsys, tmp_path, singularity,
                                         extra, job_c, slot):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": singularity, "N": 6, **extra}
    if job_c:
        job["c"] = job_c
    args = ["--set-c", slot + "=1"] if slot else []
    code, doc = run_cli(capsys, tmp_path, job, args)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "ValueError"
    assert "out of range" in doc["error"]["message"]


def test_mask_flag_matches_the_job_mask(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": ELLIPTIC, "N": 4}
    code0, doc0 = run_cli(capsys, tmp_path, dict(job, mask=[8]))
    code1, doc1 = run_cli(capsys, tmp_path, job, extra=["--mask", "8"])
    assert code0 == code1 == 0
    assert doc1["result"]["records"] == doc0["result"]["records"]


@pytest.mark.parametrize("extra, message", [
    (["--mask", "a"], "--mask expects comma-separated basis indices, "
                      "got 'a'"),
    (["--mask", "8,,1"], "--mask expects comma-separated basis indices, "
                         "got '8,,1'"),
    (["--set-c", "8;1=1"], "--set-c expects i,j=p/q, got '8;1=1'"),
])
def test_malformed_flag_is_named(capsys, tmp_path, extra, message):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": ELLIPTIC, "N": 2}
    code, doc = run_cli(capsys, tmp_path, job, extra=extra)
    assert code == 2 and doc["ok"] is False
    assert doc["error"] == {"type": "JobError", "message": message}


@pytest.mark.parametrize("key", ["1", "1,2,3", "a,b"])
def test_malformed_c_key_is_named(capsys, tmp_path, key):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": ELLIPTIC, "N": 2, "mask": [8], "c": {key: "1"}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "JobError"
    assert repr(key) in doc["error"]["message"]


QUINTIC = {"variables": ["x", "y"], "f": "x^5 + y^5",
           "weights": ["1/5", "1/5"]}


@pytest.mark.parametrize("command", ["primitive-form", "verify"])
def test_non_good_c_is_rejected(capsys, tmp_path, command):
    # c(15,1) alone leaves t/25 in K(Phi_15, Phi_16); c(16,2) = 1 cancels it
    job = {"schema": SCHEMA, "command": command, "singularity": QUINTIC,
           "N": 3, "c": {"15,1": "1"}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "ValueError"
    assert "(i, j, r) = (15, 16, 1)" in doc["error"]["message"]
    assert doc["error"]["message"].endswith("coefficient 1/25")
    job["c"]["16,2"] = "1"
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    if command == "verify":
        assert doc["result"] == {"verified": True}


@pytest.mark.parametrize("job_extra, exponentiated", [
    ({}, True), ({"mask": [2]}, True), ({"mask": [1, 2]}, True),
    ({"mask": [1]}, False), ({"exponentiate": False}, False)])
def test_p1_override_only_on_its_direction(capsys, tmp_path, monkeypatch,
                                           job_extra, exponentiated):
    # the e^u - 1 override belongs to basis index 2; a job whose mask
    # leaves that direction out passes none
    seen = []
    build = cli.build_unfolding

    def spy(*args, **kwargs):
        seen.append(kwargs["overrides"])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_unfolding", spy)
    job = {"schema": SCHEMA, "command": "primitive-form", "N": 4,
           "singularity": {"model": "p1", "q": "2"}, **job_extra}
    code, _ = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert seen == [{2: seen[0][2]} if exponentiated else None]


@pytest.mark.parametrize("mask, index", [([0], 0), ([2, 9], 9)])
def test_mask_index_out_of_range_is_named(capsys, tmp_path, mask, index):
    job = {"schema": SCHEMA, "command": "primitive-form",
           "singularity": CHAIN, "N": 2, "mask": mask}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "ValueError"
    assert doc["error"]["message"] == \
        "mask index %d out of range 1..3" % index


def test_duplicated_variable_is_a_parse_error(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "analyze",
           "singularity": {"variables": ["x", "x"], "f": "x^3"}}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == "ParseError"
    assert "'x'" in doc["error"]["message"]


# (command, fields, error type): the job fields a document may not
# have, and the error document they give
MALFORMED = [
    ("primitive-form", {"N": 2, "mask": ["x"]}, "JobError"),
    ("primitive-form", {"N": 2, "mask": 3}, "JobError"),
    ("primitive-form", {"N": 2, "c": [1]}, "JobError"),
    ("pairing", {"pairs": [[1, 2]]}, "JobError"),
    ("verify", {"N": 2, "rep": 5}, "JobError"),
    ("verify", {"N": 2, "rep": ["x"]}, "JobError"),
    ("primitive-form", {"N": -1}, "JobError"),
    ("primitive-form", {"N": 1.5}, "JobError"),
    ("pairing", {"pairs": [["z", "1"]], "t_order": [1]}, "JobError"),
    ("pairing", {"pairs": [["z", "1"]], "t_order": -3}, "JobError"),
    # "no" used to orthogonalize, "false" to exponentiate
    ("analyze", {"singularity": {"variables": ["z"], "f": "z^3",
                                 "weights": ["1/3"], "orthogonalize": "no"}},
     "JobError"),
    ("analyze", {"singularity": {"variables": ["z"], "f": "z^3",
                                 "weights": ["1/3"], "orthogonalize": 0}},
     "JobError"),
    ("primitive-form", {"singularity": {"model": "p1", "q": "2"}, "N": 2,
                        "exponentiate": "false"}, "JobError"),
    ("verify", {"singularity": {"model": "p1", "q": "2"}, "N": 2,
                "exponentiate": 1}, "JobError"),
    # JSON true used to be read as the rational 1
    ("primitive-form", {"singularity": {"model": "p1", "q": True}, "N": 2},
     "JobError"),
    ("primitive-form", {"singularity": ELLIPTIC, "N": 2, "mask": [8],
                        "c": {"8,1": True}}, "JobError"),
    ("verify", {"N": 2, "rep": [{"t": 0, "z": "1", "coeff": True}]},
     "JobError"),
    # a repeated basis index used to give the u_names ["u8", "u8"]
    ("primitive-form", {"singularity": ELLIPTIC, "N": 3, "mask": [8, 8]},
     "ValueError"),
    ("verify", {"singularity": {"model": "p1", "q": "2"}, "N": 3,
                "mask": [2, 2]}, "ValueError"),
]


@pytest.mark.parametrize("command, fields, error", MALFORMED, ids=[
    "%s-fields%d" % (row[0], i) for i, row in enumerate(MALFORMED)])
def test_malformed_job_fields_are_rejected(capsys, tmp_path, command,
                                           fields, error):
    job = {"schema": SCHEMA, "command": command,
           "singularity": {"variables": ["z"], "f": "z^3",
                           "weights": ["1/3"]}, **fields}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"]["type"] == error


def test_boolean_fields_accept_json_booleans(capsys, tmp_path):
    # the one zoo singularity whose orthogonalized basis is not monomial
    sing = {"variables": ["x", "y"], "f": "x^6 + y^6 + x^3*y^3",
            "weights": ["1/6", "1/6"]}
    bases = []
    for value in (True, False):
        job = {"schema": SCHEMA, "command": "analyze",
               "singularity": dict(sing, orthogonalize=value)}
        code, doc = run_cli(capsys, tmp_path, job)
        assert code == 0
        bases.append(doc["result"]["basis"])
    assert "1/2*x^3*y + y^4" in bases[0] and "x*y^3" in bases[1]
    for value in (True, False):
        job = {"schema": SCHEMA, "command": "verify", "N": 3,
               "singularity": {"model": "p1", "q": "2"},
               "exponentiate": value}
        code, doc = run_cli(capsys, tmp_path, job)
        assert code == 0
        assert doc["result"] == {"verified": True}


def test_verify_reports_a_missing_constant_class(capsys, tmp_path):
    job = {"schema": SCHEMA, "command": "verify",
           "singularity": {"variables": ["z"], "f": "z^3",
                           "weights": ["1/3"]}, "N": 2, "rep": []}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"] == {"verified": False, "mismatches": [
        {"t": 0, "basis": 1, "defect": "-1"}]}


@pytest.mark.parametrize("singularity, mask, u, defect", [
    # the socle direction of the elliptic cone alone: its one parameter
    # is named u8, the positional ring name would be u1
    ({"variables": ["z1", "z2", "z3"], "f": "1/3*z1^3+1/3*z2^3+1/3*z3^3",
      "weights": ["1/3"] * 3}, [8], "u8", "-1/6*u8^3 + u8"),
    # the P^1 mirror names its directions u0 and u1
    ({"model": "p1", "q": "2"}, None, "u0", "u0"),
], ids=["masked-cone", "p1"])
def test_verify_names_defects_in_the_job_parameters(capsys, tmp_path,
                                                    singularity, mask, u,
                                                    defect):
    job = {"schema": SCHEMA, "command": "verify", "singularity": singularity,
           "N": 3, "mask": mask, "rep": [{"z": "1"}, {"z": "1", "u": u}]}
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 0
    assert doc["result"] == {"verified": False, "mismatches": [
        {"t": 0, "basis": 1, "defect": defect}]}


def test_p1_verify_rep_reads_the_symbolic_q(capsys, tmp_path):
    # a rep's "z" names q as the pairing's classes do: q*z^-1 is the
    # basis element phi_2 = 2/z at q = 2
    docs = []
    for z in ("q*z^-1", "2*z^-1", "q^2*z^-1 - q*z^-1"):
        job = {"schema": SCHEMA, "command": "verify", "N": 3,
               "singularity": {"model": "p1", "q": "2"},
               "rep": [{"z": "1"}, {"t": 1, "z": z}]}
        code, doc = run_cli(capsys, tmp_path, job)
        assert code == 0, doc
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]
    assert [(m["t"], m["basis"]) for m in docs[0]["result"]["mismatches"]] \
        == [(0, 1), (0, 2), (1, 2)]
    job["rep"] = [{"z": "q^-1*z"}]
    code, doc = run_cli(capsys, tmp_path, job)
    assert code == 2 and doc["error"]["type"] == "JobError"


# --- the primitive-form and verify documents, byte for byte --------------

PRIMITIVE_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "primitive_cli_golden.json")

# each job with a rep that is not its primitive form, so that the
# defects of its verify document print part of the projection
PRIMITIVE_JOBS = {
    "E12/N6": ({"singularity": {"variables": ["x", "y"], "f": "x^3 + y^7",
                                "weights": ["1/3", "1/7"]}, "N": 6},
               [{"z": "1"}, {"t": 1, "z": "y"}]),
    "elliptic-socle/N12/c81=1": (
        {"singularity": {"variables": ["z1", "z2", "z3"],
                         "f": "1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3",
                         "weights": ["1/3", "1/3", "1/3"]},
         "N": 12, "mask": [8], "c": {"8,1": "1"}},
        [{"z": "1"}, {"t": 1, "z": "z1*z2*z3", "u": "u8"}]),
    "p1-q2/N8": ({"singularity": {"model": "p1", "q": "2"}, "N": 8},
                 [{"z": "1"}, {"t": 1, "z": "z"}]),
    "W12/N4": ({"singularity": {"variables": ["x", "y"], "f": "x^4 + y^5",
                                "weights": ["1/4", "1/5"]}, "N": 4},
               [{"z": "1"}, {"t": 1, "z": "x*y"}]),
}


def primitive_cli_stdout():
    """{"command:job": stdout} of the primitive-form document of each
    job in PRIMITIVE_JOBS and of two verify documents: of the solved
    primitive form and of the job's other rep ("verify-rep")."""
    out = {}
    for name, (job, rep) in PRIMITIVE_JOBS.items():
        for key, command, extra in (
                ("primitive-form", "primitive-form", {}),
                ("verify", "verify", {}),
                ("verify-rep", "verify", {"rep": rep})):
            doc = json.dumps(dict(job, schema=SCHEMA, command=command,
                                  **extra))
            buf = io.StringIO()
            sys.stdin, stdin = io.StringIO(doc), sys.stdin
            try:
                with redirect_stdout(buf):
                    status = main(["--job", "-"])
            finally:
                sys.stdin = stdin
            assert status == 0, buf.getvalue()
            out["%s:%s" % (key, name)] = buf.getvalue()
    return out


def test_primitive_cli_documents_match_the_golden_stdout():
    with open(PRIMITIVE_GOLDEN) as fh:
        golden = json.load(fh)
    got = primitive_cli_stdout()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    # Regenerate the golden file from the code on the import path:
    #   PYTHONPATH=src python tests/test_cli.py
    with open(PRIMITIVE_GOLDEN, "w") as fh:
        json.dump(primitive_cli_stdout(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_fmt_writes_a_fraction_as_it_is(monkeypatch):
    # an exact Fraction is written with str alone, with no Fraction built
    # again; any other value goes through Fraction first
    values = (Fraction(-3, 4), Fraction(5), 7, "2/6", True)
    expected = ["-3/4", "5", "7", "1/3", "1"]
    assert [cli._fmt(x) for x in values] == expected
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert cli._fmt(values[0]) == "-3/4"
    assert built == []
    assert cli._fmt(7) == "7" and built == [(7,)]
