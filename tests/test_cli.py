"""End-to-end CLI tests: subcommands, exit codes, document validation."""

import json

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
    def test_negative_tolerance(self, capsys, attained_doc):
        code, _, err = run_cli(capsys, "check", "--input", attained_doc, "--tolerance", "-1")
        assert code == 1
        assert err.startswith("error:") and "--tolerance" in err

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


class TestDocumentRoundTrip:
    def test_numbers_survive_serialisation_bit_for_bit(self):
        awkward = [0.1, 0.30000000000000004, 0.15000000000000002, 1e-17, 1.0]
        doc = {"implication": "godel", "gamma": [awkward], "beta": [0.5]}
        recovered = json.loads(json.dumps(doc))
        assert recovered["gamma"][0] == awkward
        for original, copy in zip(awkward, recovered["gamma"][0]):
            assert original == copy
