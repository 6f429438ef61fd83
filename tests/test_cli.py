from __future__ import annotations

import hashlib
import io
import json
import os
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


def test_color_out_collects_every_coloring(capsys, tmp_path: Path, monkeypatch):
    """`--out` holds one colouring per input graph, in input order, with or
    without `--json`, and nothing goes to stdout."""
    for flags in ([], ["--json"]):
        target = tmp_path / "two.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO("k4\nc5\n"))
        code, out = run_cli(capsys, *flags, "color", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.count("k=") == 2
        first, second = text.split("k=")[1:]
        for name, block in (("k4", first), ("c5", second)):
            col = parse_coloring(builtin_fixture(name), "k=" + block)
            assert col.is_full() and col.validate()


def test_color_out_is_not_created_for_a_malformed_first_graph(capsys, tmp_path):
    target = tmp_path / "never.txt"
    assert main(["color", "--out", str(target), "D?{?"]) == 2
    assert not target.exists()


def test_fixture_names_match_in_any_case(capsys):
    assert run_cli(capsys, "classify", "K4") == (0, "Class 1 (chi'=3, Delta=3)\n")
    assert run_cli(capsys, "classify", "PStar") == (0, "Class 2 (chi'=4, Delta=3)\n")


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


def test_stdin_is_answered_one_graph_at_a_time(capsys, monkeypatch):
    """The first graph is answered before the second line is read."""

    def lines():
        yield "k4\n"
        raise RuntimeError("read past the first graph")

    monkeypatch.setattr("sys.stdin", lines())
    with pytest.raises(RuntimeError, match="read past"):
        main(["classify"])
    assert capsys.readouterr().out == "Class 1 (chi'=3, Delta=3)\n"


def test_graph_with_file_is_usage_error(capsys, tmp_path: Path):
    path = tmp_path / "graphs.txt"
    path.write_text("c5\n")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "k4", "--file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument graph" in captured.err
    code, out = run_cli(capsys, "classify", "--file", str(path))
    assert (code, out) == (0, "Class 2 (chi'=3, Delta=2)\n")


@pytest.mark.parametrize("edge", ["0-1", "0", "0,1,2", "a,b"])
def test_malformed_edge_names_the_option(capsys, edge):
    code = main(["critical", "--edge", edge, "k4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --edge takes 'u,v', two vertex numbers, not {edge!r}\n"


@pytest.mark.parametrize("part", ["1,x", "", "1;2", "a"])
def test_malformed_part_names_the_option(capsys, part):
    code = main(["split", "--vertex", "0", "--part", part, "k4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: --part takes 'u,v,...', comma-separated vertex numbers, not {part!r}\n"
    )


@pytest.mark.parametrize(
    "argv, out",
    [
        (["classify"], "Class 1 (chi'=0, Delta=0)"),
        (["overfull"], "overfull: false (|E|=0 <= 0)"),
        (["pairs"], "full-deficiency pairs: none"),
        (["critical"], "Delta-critical: false"),
        (["color"], "k=1 uncolored=0"),
        (["color", "--exact"], "k=0 uncolored=0"),
    ],
)
def test_edgeless_enumerated_graphs_are_answered(capsys, monkeypatch, argv, out):
    """The graphs on 0 and 1 vertices, which `enumerate` prints, are
    answered like any other graph."""
    assert run_cli(capsys, "enumerate", "--n", "0") == (0, "?\n")
    assert run_cli(capsys, "enumerate", "--n", "1") == (0, "@\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("?\n@\n"))
    assert run_cli(capsys, *argv) == (0, f"{out}\n{out}\n")


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


@pytest.mark.parametrize("cpus", [1, 3])
def test_verify_budget_exhaustion_exit_code(capsys, monkeypatch, cpus):
    """A node budget that runs out in the lemma sweep, in this process or
    only in the forked shares, exits 3 with the node count on stderr, not
    1 with a traceback."""
    import kempe.harness
    from kempe.classify import BudgetExceededError
    from test_shares import assert_no_child_left, use_cpus

    solve, here = kempe.harness.delta_coloring_of_minus_e, os.getpid()

    def exhausted(g, e, seed=0):
        if cpus == 1 or os.getpid() != here:
            raise BudgetExceededError(7, {})
        return solve(g, e, seed=seed)

    monkeypatch.setattr(kempe.harness, "delta_coloring_of_minus_e", exhausted)
    use_cpus(monkeypatch, cpus)
    code = main(["verify", "--n-max", "5", "--seeds", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: solver budget exceeded after 7 nodes\n"
    assert_no_child_left()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "pstar"],
        ["critical", "--edge", "0,1", "triangle"],
        ["verify", "--suite", "theorem1"],
    ],
)
def test_json_after_the_subcommand(capsys, argv):
    """`--json` after the subcommand prints the bytes it prints before it."""
    before = run_cli(capsys, "--json", *argv)
    assert run_cli(capsys, *argv, "--json") == before
    assert json.loads(before[1])


def test_verify_out_replaces_previous_check_files(capsys, tmp_path: Path):
    """A second run into a used report directory leaves the file set of a
    fresh run: the first run's check files go, a foreign file stays."""
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    lemmas = ["verify", "--suite", "lemmas", "--n-max", "5", "--seeds", "1"]
    assert main([*lemmas, "--out", str(used)]) == 0
    (used / "notes.txt").write_text("kept\n")
    assert main(["verify", "--suite", "theorem1", "--out", str(used)]) == 0
    assert main(["verify", "--suite", "theorem1", "--out", str(fresh)]) == 0
    capsys.readouterr()
    names = {p.name for p in used.iterdir()}
    assert names == {p.name for p in fresh.iterdir()} | {"notes.txt"}
    for name in names - {"notes.txt"}:
        assert (used / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize(
    "manifest", ["not json", "[1]", '{"suite": "x"}', '{"checks": ["../x"]}']
)
def test_verify_out_refuses_a_foreign_manifest(capsys, tmp_path: Path, manifest):
    out = tmp_path / "reports"
    out.mkdir()
    (out / "suite.json").write_text(manifest)
    code = main(["verify", "--suite", "theorem1", "--out", str(out)])
    assert code == 2
    assert "is not a suite manifest" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["suite.json"]
    assert (out / "suite.json").read_text() == manifest


def test_verify_check_failure_exit_code(capsys, monkeypatch, tmp_path: Path):
    """Exit code 1 means a check failed: the summary, the JSON and the
    report directory all say so."""
    import kempe.harness
    from kempe.report import failing

    monkeypatch.setattr(
        kempe.harness,
        "verify_theorem1",
        lambda host: failing("theorem-vertex-splitting", host, split_vertex=0),
    )
    out = tmp_path / "reports"
    code, text = run_cli(capsys, "verify", "--suite", "theorem1", "--out", str(out))
    assert code == 1
    assert text.splitlines()[-1] == "2 CHECK(S) FAILED"
    manifest = json.loads((out / "suite.json").read_text())
    assert manifest["failures"] == [
        "theorem-vertex-splitting-K4",
        "theorem-vertex-splitting-K6",
    ]
    code, text = run_cli(capsys, "--json", "verify", "--suite", "theorem1")
    assert code == 1
    assert json.loads(text)["exit_code"] == 1


# sha256 of json.dumps([argv, stdin, exit code, stdout, stderr]) for each
# invocation, recorded before the graph commands shared one driver.
OUTPUT_PINS = [
    (["classify", "pstar"], None,
     "ed6beec71a0ae4f73f56576b115efc63ed8f2d20870f065ae77027323178ac21"),
    (["--json", "classify", "pstar"], None,
     "485b99bd972eaf899c828d95170db954b67f12542246ee7a8b1e943784e6bdda"),
    (["color", "c5"], None,
     "7f2b28fccf8ab2908538d4076558c59033fd5c3d04044bd9c7f27415ae5ec6eb"),
    (["--json", "color", "c5"], None,
     "36c7ef689d87011f7ffc564c3c3e3b754fab3a76d19e1bcfc7a7daaf0e445732"),
    (["color", "--exact", "pstar"], None,
     "43b4ff540f11513594f63b78c277e660e0bf3bcba110f9ba2cd7dc46450664eb"),
    (["--json", "color", "--exact", "pstar"], None,
     "258e2e11a651c88e7af351235bd7ab001f19e24e09c8c55cd7b021120efd15e5"),
    (["overfull", "triangle"], None,
     "500489f0ffe04af7d9b01a910ff35fbca46129c7afa581ac742452df43a51dec"),
    (["--json", "overfull", "triangle"], None,
     "7e5fff82c907d5e9126a798b163f7ab87411e9074c6888b324c731b66cd61955"),
    (["pairs", "splitk4"], None,
     "6c7bc0a6fc84f2a7c317a334fb10617875874e0cfc02a9ae0dd17755be3774ff"),
    (["--json", "pairs", "splitk4"], None,
     "1b1a7ae62f06fe34086fc8da086bfb4fb18f1fc928d8cb6d4936f1cb2713b1a2"),
    (["critical", "pstar"], None,
     "288f0b71493d391a0aa9feea3554ec11087cf8538a6f64c18f33b4bc73758230"),
    (["--json", "critical", "pstar"], None,
     "c0d8266d05fb89ea6f633b08c747f754ac2ed9087d9c693416254306ba40343e"),
    (["critical", "--edge", "0,1", "triangle"], None,
     "cfd1418a15fb94fe731ce05fc58816e431a0f4153ae8055bbdf04f298b6ea184"),
    (["--json", "critical", "--edge", "0,1", "triangle"], None,
     "5e170885964c81f22af65a73bf9dfb14571ebcd7019ee11aca048928d0dd37d9"),
    (["critical", "--edge", "0,2", "pstar"], None,
     "9eb3be62dd38fd4bfb02c31546c4c3af528dac615e7228bcffc3f62d559b8c35"),
    (["split", "--vertex", "0", "--part", "1", "k4"], None,
     "16bf8c2622e7fe593d92dcfbdd8487e18aa3748efaa948e3251da2f1926ac93a"),
    (["--json", "split", "--vertex", "0", "--part", "1", "k4"], None,
     "96df7430e68324cfd7e36120b729d87acc1b3974ad7fd604ded8e7f587f68b55"),
    (["structures", "--kind", "multifan", "--edge", "0,1", "pstar"], None,
     "0818434312622542693e2bd6a103f00b8f18a25bb3bea61971088e4b09551153"),
    (["--json", "structures", "--kind", "multifan", "--edge", "0,1", "pstar"], None,
     "acc4867e2fbe955d301cf7c0e9a457db938648fd6813d786259648f5b706a7d0"),
    (["structures", "--kind", "kierstead", "--edge", "0,1", "pstar"], None,
     "2af741812e275a931397ace77b8a9ec45ccace2c5ec06c4a8f8cb797d190f7ca"),
    (["--json", "structures", "--kind", "kierstead", "--edge", "0,1", "pstar"], None,
     "556b0fcf90599866fba782389e9c66883e12c46567e4c2c3143c1f78fa4d78b5"),
    (["structures", "--kind", "fork", "--edge", "0,1", "pstar"], None,
     "c5fb438e1b619650aa3b7a33c96faf80e06b17e7cb53f4e166f889c41526b366"),
    (["classify", "D?{?"], None,
     "dacc78be96a09bb63534e284c19db6992878cacf5e6fb8ce7d07eccd0d229dd2"),
    (["classify"], "triangle\nk4\nD?{?\nc5\n",
     "1b226c36d4aa2a5feeb1ad47683abfef76a79322e4d8b335c5d18b119158192c"),
    (["color"], "c5\nk4\n",
     "6b0af22ec5cd9dc7844ae09abded71fc616e0def31c481ff9a6c1ccbc412ce55"),
    (["--json", "color", "--exact"], "k4\npstar\n",
     "b3c2176fc3c1b5c2d71f73e70ec3dcd0f8e73dc48e82546fedb1f1d94a1aadb9"),
]


@pytest.mark.parametrize(
    "argv, stdin, digest", OUTPUT_PINS, ids=[" ".join(p[0]) for p in OUTPUT_PINS]
)
def test_output_is_pinned(capsys, monkeypatch, argv, stdin, digest):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    code = main(list(argv))
    captured = capsys.readouterr()
    record = json.dumps([argv, stdin, code, captured.out, captured.err])
    assert hashlib.sha256(record.encode()).hexdigest() == digest
