"""End-to-end CLI tests: subcommands, exit codes, document validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzrel import cli
from fuzzrel.errors import InvariantViolation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def consistent_doc(tmp_path):
    return write_doc(tmp_path, "consistent.json", {
        "implication": "godel",
        "gamma": [[0.6, 0.49], [0.26, 0.9]],
        "beta": [0.58, 0.88],
        "name": "consistent",
    })


@pytest.fixture
def attained_doc(tmp_path):
    return write_doc(tmp_path, "attained.json", {
        "implication": "godel",
        "gamma": [[0.6, 0.49], [0.26, 0.9]],
        "beta": [0.1, 0.4],
    })


@pytest.fixture
def infimum_doc(tmp_path):
    return write_doc(tmp_path, "infimum.json", {
        "implication": "godel",
        "gamma": [[0.41, 0.07], [0.29, 0.31]],
        "beta": [0.88, 0.46],
    })


class TestCheck:
    def test_consistent(self, capsys, consistent_doc):
        code, out, _ = run_cli(capsys, "check", "--input", consistent_doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["consistency"] == {"consistent": True, "residual": 0.0}
        assert payload["epsilon"] == [0.58, 0.88]

    def test_inconsistent(self, capsys, attained_doc):
        code, out, _ = run_cli(capsys, "check", "--input", attained_doc)
        assert code == 0
        assert not json.loads(out)["consistency"]["consistent"]


class TestDistance:
    def test_attained_report(self, capsys, attained_doc):
        code, out, _ = run_cli(capsys, "distance", "--input", attained_doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["per_row"][0]["nabla_j"] == pytest.approx(0.15, abs=1e-12)
        assert payload["per_row"][0]["j"] == 1
        assert payload["verdict"] == "minimum"
        assert not payload["consistency"]["consistent"]

    def test_full_precision_serialisation(self, capsys, attained_doc):
        _, out, _ = run_cli(capsys, "distance", "--input", attained_doc)
        # shortest round-trip repr keeps all 17 significant digits
        assert "0.15000000000000002" in out

    def test_pretty_table(self, capsys, attained_doc):
        code, out, _ = run_cli(capsys, "distance", "--input", attained_doc, "--pretty")
        assert code == 0
        assert "nabla_j" in out
        assert "verdict: minimum" in out


class TestApprox:
    def test_infimum_reports_empty(self, capsys, infimum_doc):
        code, out, _ = run_cli(capsys, "approx", "--input", infimum_doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["nabla"] == pytest.approx(0.15, abs=1e-12)
        assert payload["verdict"] == "infimum"
        assert payload["approximation"] == {"empty": True}

    def test_near_approximation_on_request(self, capsys, infimum_doc):
        code, out, _ = run_cli(
            capsys, "approx", "--input", infimum_doc, "--delta", "0.2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["near"]["vector"] == [1.0, 0.26]
        assert payload["near"]["distance"] == pytest.approx(0.2, abs=1e-12)
        assert payload["near"]["optimal"] is False

    def test_delta_below_distance_rejected(self, capsys, infimum_doc):
        code, _, err = run_cli(
            capsys, "approx", "--input", infimum_doc, "--delta", "0.1"
        )
        assert code == 1
        assert "delta" in err

    @pytest.mark.parametrize("delta", ["1.5", "nan", "inf", "0.01"])
    @pytest.mark.parametrize("doc", ["attained_doc", "infimum_doc"])
    def test_bad_delta_rejected_whatever_the_verdict(self, capsys, request, doc, delta):
        path = request.getfixturevalue(doc)
        code, out, err = run_cli(capsys, "approx", "--input", path, "--delta", delta)
        assert (code, out) == (1, "")
        assert err.startswith("error: delta: ")

    def test_valid_delta_on_attained_report_keeps_output(self, capsys, attained_doc):
        plain = run_cli(capsys, "approx", "--input", attained_doc)
        with_delta = run_cli(capsys, "approx", "--input", attained_doc, "--delta", "0.2")
        assert with_delta == plain
        assert "near" not in json.loads(with_delta[1])

    def test_attained_vector(self, capsys, attained_doc):
        code, out, _ = run_cli(capsys, "approx", "--input", attained_doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["approximation"]["distance"] == pytest.approx(0.15, abs=1e-12)
        assert len(payload["approximation"]["vector"]) == 2
        assert len(payload["approximation"]["solution"]) == 2


class TestVerify:
    def test_file_mode(self, capsys, infimum_doc):
        code, out, _ = run_cli(capsys, "verify", "--input", infimum_doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["difference"] <= payload["threshold"]

    def test_random_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--random", "2", "3", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["systems_checked"] == 60
        assert payload["disagreements"] == 0

    def test_random_mode_trials_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--random", "2", "2", "--trials", "5", "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["trials"] == 5

    def test_requires_exactly_one_source(self, capsys, infimum_doc):
        code, _, err = run_cli(capsys, "verify")
        assert code == 1
        assert "verify" in err
        code, _, _ = run_cli(
            capsys, "verify", "--input", infimum_doc, "--random", "2", "2", "1"
        )
        assert code == 1

    def test_disagreement_exits_nonzero(self, capsys, infimum_doc, monkeypatch):
        monkeypatch.setattr(cli, "_oracle_nabla", lambda system, tol: type(
            "Estimate", (), {"inf_value": 0.5, "bracket_width": 0.0,
                             "member_at_inf": True})())
        code, out, _ = run_cli(capsys, "verify", "--input", infimum_doc)
        assert code == 2
        assert json.loads(out)["agree"] is False

    @pytest.mark.xfail(strict=True, reason="goguen_threshold underflows on subnormal gamma entries")
    def test_subnormal_goguen_agrees(self, capsys, tmp_path):
        # test_goguen.py::TestSubnormalGamma: the report gives 0.5, the
        # oracle 0.3, so verify prints "agree": false and exits 2
        path = write_doc(tmp_path, "subnormal.json", {
            "implication": "goguen",
            "gamma": [[5e-324], [5e-324]],
            "beta": [0.2, 0.8],
        })
        code, out, _ = run_cli(capsys, "verify", "--input", path)
        assert json.loads(out)["agree"] is True
        assert code == 0

    def test_random_disagreement_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_oracle_nabla", lambda system, tol: type(
            "Estimate", (), {"inf_value": 2.0})())
        code, out, _ = run_cli(capsys, "verify", "--random", "2", "2", "3")
        assert code == 2
        payload = json.loads(out)
        assert payload["disagreements"] == payload["systems_checked"] == 9


class TestMaxTDistance:
    def test_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, "maxt.json", {
            "implication": "godel",
            "a": [[0.6, 0.26], [0.49, 0.9]],
            "b": [0.58, 0.88],
        })
        code, out, _ = run_cli(capsys, "maxt-distance", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(0.0, abs=1e-12)
        assert payload["attained"] is True

    def test_min_system_fields_rejected(self, capsys, attained_doc):
        code, _, err = run_cli(capsys, "maxt-distance", "--input", attained_doc)
        assert code == 1
        assert "a:" in err


@pytest.fixture
def maxt_doc(tmp_path):
    return write_doc(tmp_path, "maxt.json", {
        "implication": "goguen",
        "a": [[0.6, 0.26], [0.49, 0.9]],
        "b": [0.1, 0.4],
        "name": "mt",
    })


_ATTAINED_ROWS = (
    '"per_row":[{"j":1,"nabla_j":0.15000000000000002,"tau_j":0.15000000000000002,'
    '"one_minus_beta":0.9,"attainable":true,"argmin_i":1,"borderline":false,'
    '"nabla_tilde_j":0.15000000000000002},{"j":2,"nabla_j":0.0,"tau_j":0.0,'
    '"one_minus_beta":0.6,"attainable":true,"argmin_i":2,"borderline":false,'
    '"nabla_tilde_j":0.0}],"consistency":{"consistent":false,"residual":0.16}'
)
_INFIMUM_ROWS = (
    '"per_row":[{"j":1,"nabla_j":0.12,"tau_j":0.47000000000000003,"one_minus_beta":0.12,'
    '"attainable":true,"argmin_i":1,"borderline":false,"nabla_tilde_j":1.0},{"j":2,'
    '"nabla_j":0.15000000000000002,"tau_j":0.15000000000000002,"one_minus_beta":0.54,'
    '"attainable":false,"argmin_i":2,"borderline":false,"nabla_tilde_j":1.0}],'
    '"consistency":{"consistent":false,"residual":0.54}'
)
_ATTAINED_TABLE = """\
implication: godel
consistency: inconsistent (residual 0.16)
nabla: 0.15  verdict: minimum
  j      nabla_j        tau_j     1-beta_j attainable argmin_i
  1         0.15         0.15          0.9       true        1
  2            0            0          0.6       true        2
"""
_INFIMUM_TABLE = """\
implication: godel
consistency: inconsistent (residual 0.54)
nabla: 0.15  verdict: infimum
  j      nabla_j        tau_j     1-beta_j attainable argmin_i
  1         0.12         0.47         0.12       true        1
  2         0.15         0.15         0.54      false        2
approximation: set is empty (distance is an infimum)
"""

#: Per case: subcommand, document fixture (None for none), further flags, and
#: the exact stdout as single-line JSON and with --pretty.  Every case exits 0.
PINNED = {
    "check": (
        "check", "consistent_doc", [],
        '{"name":"consistent","implication":"godel","consistency":'
        '{"consistent":true,"residual":0.0},"epsilon":[0.58,0.88]}\n',
        "system: consistent\nimplication: godel\n"
        "consistency: consistent (residual 0)\nepsilon: [0.58, 0.88]\n",
    ),
    "distance": (
        "distance", "attained_doc", [],
        '{"name":null,"implication":"godel","nabla":0.15000000000000002,'
        '"verdict":"minimum","borderline":false,' + _ATTAINED_ROWS + "}\n",
        _ATTAINED_TABLE,
    ),
    "approx-minimum": (
        "approx", "attained_doc", [],
        '{"name":null,"implication":"godel","nabla":0.15000000000000002,'
        '"verdict":"minimum","borderline":false,' + _ATTAINED_ROWS
        + ',"approximation":{"vector":[0.25,0.25],"solution":[0.25,0.25],'
        '"distance":0.15000000000000002}}\n',
        _ATTAINED_TABLE
        + "lowest approximation: [0.25, 0.25]\napproximate solution: [0.25, 0.25]\n"
        "achieved distance: 0.15\n",
    ),
    "approx-empty": (
        "approx", "infimum_doc", [],
        '{"name":null,"implication":"godel","nabla":0.15000000000000002,'
        '"verdict":"infimum","borderline":false,' + _INFIMUM_ROWS
        + ',"approximation":{"empty":true}}\n',
        _INFIMUM_TABLE,
    ),
    "approx-near": (
        "approx", "infimum_doc", ["--delta", "0.2"],
        '{"name":null,"implication":"godel","nabla":0.15000000000000002,'
        '"verdict":"infimum","borderline":false,' + _INFIMUM_ROWS
        + ',"approximation":{"empty":true},"near":{"delta":0.2,"vector":[1.0,0.26],'
        '"solution":[0.41,0.26],"distance":0.2,"optimal":false}}\n',
        _INFIMUM_TABLE
        + "near approximation at delta 0.2 (non-optimal): [1, 0.26]\n"
        "near achieved distance: 0.2\n",
    ),
    "verify-file": (
        "verify", "infimum_doc", [],
        '{"mode":"file","name":null,"implication":"godel","nabla_formula":0.15000000000000002,'
        '"nabla_oracle":0.15,"difference":2.7755575615628914e-17,"threshold":2.001e-09,'
        '"agree":true}\n',
        "implication: godel\nformula 0.15 vs oracle 0.15: agree (difference 2.78e-17)\n",
    ),
    "verify-random": (
        "verify", None, ["--random", "2", "3", "4"],
        '{"mode":"random","m":2,"n":3,"trials":4,"seed":0,"systems_checked":12,'
        '"threshold":2.001e-09,"max_difference":9.999999994736442e-10,"disagreements":0,'
        '"worst":{"implication":"godel","seed":1210484339,"nabla_formula":0.13,'
        '"nabla_oracle":0.129999999,"difference":9.999999994736442e-10}}\n',
        "checked 12 systems (4 trials x 3 kinds, 2x3): max difference 1e-09, "
        "0 disagreement(s)\n",
    ),
    "maxt-distance": (
        "maxt-distance", "maxt_doc", [],
        '{"name":"mt","implication":"goguen","delta":0.012068965517241377,"attained":true}\n',
        "system: mt\nimplication: goguen\ndelta: 0.0120689655172  (attained)\n",
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
    @pytest.mark.parametrize("case", list(PINNED))
    def test_stdout(self, capsys, request, case, pretty):
        command, fixture, flags, json_out, pretty_out = PINNED[case]
        argv = [command, *flags]
        if fixture is not None:
            argv += ["--input", request.getfixturevalue(fixture)]
        if pretty:
            argv.append("--pretty")
        assert run_cli(capsys, *argv) == (0, pretty_out if pretty else json_out, "")


class TestValidation:
    def test_unknown_implication(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {
            "implication": "product", "gamma": [[0.5]], "beta": [0.5],
        })
        code, _, err = run_cli(capsys, "check", "--input", path)
        assert code == 1
        assert "implication" in err

    def test_out_of_range_entry_names_position(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {
            "implication": "godel", "gamma": [[0.5, 1.4]], "beta": [0.5],
        })
        code, _, err = run_cli(capsys, "check", "--input", path)
        assert code == 1
        assert "gamma[0][1]" in err

    @pytest.mark.parametrize("entry, message", [
        ("NaN", "gamma[0][1]: NaN is not a unit-interval value"),
        ("1e400", "gamma[0][1]: inf is outside [0, 1]"),
    ], ids=["nan", "overflow-to-inf"])
    def test_non_finite_entry_mid_row_named(self, capsys, tmp_path, entry, message):
        path = tmp_path / "bad.json"
        path.write_text('{"implication": "godel", "gamma": [[0.2, ' + entry + ', 0.7]], "beta": [0.5]}')
        code, out, err = run_cli(capsys, "check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_negative_zero_reads_as_zero(self, capsys, tmp_path):
        outputs = []
        for zero in ("0.0", "-0.0"):
            path = tmp_path / "zero.json"
            path.write_text('{"implication": "godel", "gamma": [[0.6, ' + zero + ']], "beta": [0.3]}')
            code, out, _ = run_cli(capsys, "check", "--input", str(path))
            outputs.append((code, out))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("field, fields", [
        ("beta[0]", {"gamma": [[0.5]], "beta": [10**400]}),
        ("gamma[0]", {"gamma": [0.5, 0.2], "beta": [0.5]}),
        ("beta", {"gamma": [[0.5]], "beta": 0.5}),
    ], ids=["huge-integer", "flat-gamma", "scalar-beta"])
    def test_malformed_field_named(self, capsys, tmp_path, field, fields):
        path = write_doc(tmp_path, "bad.json", {"implication": "godel", **fields})
        code, out, err = run_cli(capsys, "check", "--input", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("text, message", [
        ("[0.5]", "top-level value must be a JSON object"),
        ('{"gamma": [[0.5]], "beta": [0.5]}', "implication: required string field"),
    ], ids=["array-document", "no-implication"])
    def test_document_shape_named(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err

    def test_ragged_matrix(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {
            "implication": "godel", "gamma": [[0.5, 0.2], [0.1]], "beta": [0.5, 0.1],
        })
        code, _, err = run_cli(capsys, "check", "--input", path)
        assert code == 1
        assert "row 1" in err

    def test_missing_field(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {"implication": "godel", "beta": [0.5]})
        code, _, err = run_cli(capsys, "check", "--input", path)
        assert code == 1
        assert "gamma" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", "--input", str(path))
        assert code == 1
        assert "JSON" in err

    def test_integer_over_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        digits = "1" + "0" * 5000
        path.write_text('{"implication": "godel", "gamma": [[' + digits + ']], "beta": [0.5]}')
        code, out, err = run_cli(capsys, "check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "not valid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--input", "/nonexistent/x.json")
        assert code == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        doc = json.dumps({
            "implication": "lukasiewicz",
            "gamma": [[0.6, 0.49], [0.26, 0.9]],
            "beta": [0.1, 0.4],
        })
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run_cli(capsys, "distance", "--input", "-")
        assert code == 0
        assert json.loads(out)["nabla"] == pytest.approx(0.3, abs=1e-12)


class TestFlags:
    def test_tolerance_accepted(self, capsys, attained_doc):
        # The residual of this system is 0.16.
        code, out, _ = run_cli(capsys, "check", "--input", attained_doc, "--tolerance", "0.2")
        assert code == 0
        assert '"consistent":true' in out

    def test_oracle_tolerance_accepted(self, capsys, attained_doc):
        code, out, _ = run_cli(capsys, "verify", "--input", attained_doc, "--oracle-tol", "1e-6")
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_negative_tolerance(self, capsys, attained_doc):
        code, _, err = run_cli(capsys, "check", "--input", attained_doc, "--tolerance", "-1")
        assert code == 1
        assert err.startswith("error:") and "--tolerance" in err

    @pytest.mark.parametrize("command, flag", [
        ("check", "--tolerance"),
        ("distance", "--tolerance"),
        ("approx", "--tolerance"),
        ("verify", "--oracle-tol"),
    ])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance(self, capsys, attained_doc, command, flag, value):
        code, out, err = run_cli(capsys, command, "--input", attained_doc, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and flag in err

    def test_trials_given_twice(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random", "2", "2", "3", "--trials", "7")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "--random" in err and "--trials" in err

    @pytest.mark.parametrize("counts", [("3",), ("0", "3")], ids=["one-count", "zero-rows"])
    def test_bad_random_counts(self, capsys, counts):
        code, out, err = run_cli(capsys, "verify", "--random", *counts)
        assert (code, out) == (1, "")
        assert err.startswith("error: --random: ")

    def test_zero_oracle_tolerance(self, capsys, attained_doc):
        code, _, err = run_cli(capsys, "verify", "--input", attained_doc, "--oracle-tol", "0")
        assert code == 1
        assert err.startswith("error:") and "--oracle-tol" in err

    def test_unknown_flag(self, capsys, attained_doc):
        code, _, err = run_cli(capsys, "distance", "--input", attained_doc, "--bogus")
        assert code == 1
        assert err.startswith("error:") and "--bogus" in err

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "check")
        assert code == 1
        assert err.startswith("error:") and "--input" in err

    def test_verify_takes_no_tolerance(self, capsys, attained_doc):
        code, _, err = run_cli(capsys, "verify", "--input", attained_doc, "--tolerance", "1e-9")
        assert code == 1
        assert err.startswith("error:") and "--tolerance" in err

    def test_invariant_violation_exits_2(self, capsys, attained_doc, monkeypatch):
        def broken(system):
            raise InvariantViolation("tau disagrees")

        monkeypatch.setattr(cli, "distance_report", broken)
        code, _, err = run_cli(capsys, "distance", "--input", attained_doc)
        assert code == 2
        assert "tau disagrees" in err


class TestClosedStdout:
    def test_exits_1_without_traceback(self, attained_doc):
        # The read end is closed before the process writes, so its first
        # write to stdout always meets a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fuzzrel.cli", "distance", "--input", attained_doc,
                 "--pretty"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestDocumentRoundTrip:
    def test_numbers_survive_serialisation_bit_for_bit(self):
        awkward = [0.1, 0.30000000000000004, 0.15000000000000002, 1e-17, 1.0]
        doc = {"implication": "godel", "gamma": [awkward], "beta": [0.5]}
        recovered = json.loads(json.dumps(doc))
        assert recovered["gamma"][0] == awkward
        for original, copy in zip(awkward, recovered["gamma"][0]):
            assert original == copy
