from __future__ import annotations

import json
from pathlib import Path

import pytest

from kempe.cli import main
from kempe.coloring import parse_coloring
from kempe.graph import builtin_fixture, from_graph6, to_graph6


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_plain_and_json_agree(capsys):
    code, out = run_cli(capsys, "classify", "pstar")
    assert code == 0
    assert "Class 2" in out and "chi'=4" in out and "Delta=3" in out
    code, out = run_cli(capsys, "--json", "classify", "pstar")
    payload = json.loads(out)
    assert code == 0
    assert payload["class"] == 2 and payload["chromatic_index"] == 4


def test_overfull_wording(capsys):
    code, out = run_cli(capsys, "overfull", "triangle")
    assert code == 0
    assert out.strip() == "overfull: true (|E|=3 > 2)"


def test_pairs(capsys):
    code, out = run_cli(capsys, "--json", "pairs", "splitk4")
    assert json.loads(out)["pairs"] == [[0, 1], [0, 4]]


def test_split_roundtrip(capsys):
    code, out = run_cli(capsys, "split", "--vertex", "0", "--part", "1", "k4")
    assert code == 0
    assert from_graph6(out.strip()) == builtin_fixture("splitk4")


def test_critical_edge_and_whole(capsys):
    code, out = run_cli(capsys, "critical", "--edge", "0,1", "triangle")
    assert code == 0 and "critical" in out
    code, out = run_cli(capsys, "--json", "critical", "pstar")
    assert json.loads(out)["delta_critical"] is True


def test_critical_non_edge_is_usage_error(capsys):
    code = main(["critical", "--edge", "0,2", "pstar"])
    assert code == 2
    assert "not in graph" in capsys.readouterr().err


def test_color_exact_writes_parseable_file(capsys, tmp_path: Path):
    target = tmp_path / "coloring.txt"
    code, _ = run_cli(capsys, "color", "--exact", "--out", str(target), "k4")
    assert code == 0
    col = parse_coloring(builtin_fixture("k4"), target.read_text())
    assert col.is_full() and col.validate() and col.k == 3


def test_color_vizing_stdout(capsys):
    code, out = run_cli(capsys, "color", "c5")
    assert code == 0
    assert out.splitlines()[0] == "k=3 uncolored=0"


def test_structures_command(capsys):
    code, out = run_cli(
        capsys, "--json", "structures", "--kind", "multifan", "--edge", "0,1",
        "triangle",
    )
    payload = json.loads(out)
    assert code == 0 and len(payload["found"]) == 2


def test_enumerate_streams_graph6(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "4")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 11
    assert all(from_graph6(ln).n == 4 for ln in lines)


def test_stdin_streaming(capsys, monkeypatch):
    import io

    g6 = "\n".join(to_graph6(builtin_fixture(n)) for n in ("triangle", "k4"))
    monkeypatch.setattr("sys.stdin", io.StringIO(g6 + "\n"))
    code, out = run_cli(capsys, "classify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "Class 2" in lines[0] and "Class 1" in lines[1]


def test_malformed_graph6_is_usage_error(capsys):
    code = main(["classify", "D?{?"])
    assert code == 2


def test_verify_small_suite(capsys, tmp_path: Path):
    code, out = run_cli(
        capsys,
        "verify",
        "--suite",
        "theorem1",
        "--n-max",
        "4",
        "--out",
        str(tmp_path / "reports"),
    )
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert (tmp_path / "reports" / "summary.txt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seeds", "0"], "seeds must be at least 1, got 0"),
        (["--n-max", "0"], "n_max must be at least 1, got 0"),
        (["--n-max", "-3"], "n_max must be at least 1, got -3"),
        (["--n-max", "9"], "enumeration is budgeted for n <= 8"),
    ],
)
def test_vacuous_verify_is_usage_error(capsys, tmp_path: Path, argv, message):
    out = tmp_path / "reports"
    code = main(["verify", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "ALL CHECKS PASSED" not in captured.out
    assert message in captured.err
    assert not out.exists()


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2
    assert "invalid choice: 'everything'" in capsys.readouterr().err


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    import kempe.classify

    solve = kempe.classify.find_edge_coloring
    monkeypatch.setattr(
        kempe.classify,
        "find_edge_coloring",
        lambda g, k, seed=None: solve(g, k, seed=seed, node_budget=1),
    )
    code = main(["classify", "pstar"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "budget exceeded after 2 nodes" in captured.err
