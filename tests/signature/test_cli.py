"""``repro-sig`` CLI goldens: byte-determinism, matching, exit codes."""

import json

import pytest

from repro.signature.cli import main
from repro.signature.index import DEFAULT_MATCH_THRESHOLD


def _compute(tmp_path, name, *extra):
    out = tmp_path / f"{name}.json"
    rc = main(["compute", "--out", str(out), *extra])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two identical pathfinder runs + one structurally different run."""
    base = tmp_path_factory.mktemp("sig-cli")
    a = _compute(base, "pf-a", "--workload", "pathfinder",
                 "--platform", "pcie")
    b = _compute(base, "pf-b", "--workload", "pathfinder",
                 "--platform", "pcie")
    other = _compute(base, "lud", "--workload", "lud", "--platform", "pcie")
    return a, b, other


class TestComputeGolden:
    def test_two_runs_are_byte_identical(self, runs):
        a, b, _ = runs
        assert a.read_bytes() == b.read_bytes()

    def test_document_shape(self, runs):
        a, _, _ = runs
        doc = json.loads(a.read_text())
        assert doc["type"] == "run_signature"
        assert doc["feature_version"] == 1
        assert doc["workload"] == "pathfinder"
        assert doc["allocs"] and doc["epoch_vectors"] and doc["phases"]

    def test_out_directory_form(self, tmp_path, capsys):
        rc = main(["compute", "--workload", "lud", "--platform", "pcie",
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        assert (tmp_path / "d" / "signature.json").exists()
        assert "written:" in capsys.readouterr().out

    def test_compute_requires_a_source(self, tmp_path, capsys):
        rc = main(["compute", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "--workload or --npz" in capsys.readouterr().err


class TestCompareGolden:
    def test_same_workload_compares_to_one(self, runs, capsys):
        a, b, _ = runs
        rc = main(["compare", str(a), str(b), "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["similarity"] == 1.0

    def test_compare_output_is_byte_deterministic(self, runs, capsys):
        a, _, other = runs
        main(["compare", str(a), str(other), "--json"])
        first = capsys.readouterr().out
        main(["compare", str(a), str(other), "--json"])
        assert capsys.readouterr().out == first

    def test_fail_below_gate(self, runs, capsys):
        a, _, other = runs
        assert main(["compare", str(a), str(other),
                     "--fail-below", "0.99"]) == 3
        assert "below" in capsys.readouterr().err

    def test_fail_above_gate_for_distinctness(self, runs, capsys):
        a, b, _ = runs
        assert main(["compare", str(a), str(b),
                     "--fail-above", "0.999"]) == 3
        assert "above" in capsys.readouterr().err

    def test_different_workloads_score_low(self, runs, capsys):
        a, _, other = runs
        main(["compare", str(a), str(other), "--json"])
        out = json.loads(capsys.readouterr().out)
        # Disjoint allocation sets: nothing pairs, similarity collapses.
        assert out["similarity"] < DEFAULT_MATCH_THRESHOLD


    def test_missing_signature_is_a_one_line_error(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "a.json"),
                   str(tmp_path / "b.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("repro-sig compare: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestMatchCli:
    def test_add_then_match(self, runs, tmp_path, capsys):
        a, b, other = runs
        db = tmp_path / "db"
        assert main(["match", str(a), "--index", str(db),
                     "--add", "pf-1", "--json"]) == 0
        capsys.readouterr()
        assert main(["match", str(b), "--index", str(db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"]["name"] == "pf-1"
        assert report["best"]["similarity"] >= DEFAULT_MATCH_THRESHOLD
        assert main(["match", str(other), "--index", str(db),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"] is None

    def test_text_rendering(self, runs, tmp_path, capsys):
        a, b, _ = runs
        db = tmp_path / "db2"
        main(["match", str(a), "--index", str(db), "--add", "pf-1"])
        capsys.readouterr()
        main(["match", str(b), "--index", str(db)])
        out = capsys.readouterr().out
        assert "MATCH" in out and "best: pf-1" in out
