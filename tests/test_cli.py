"""Command line interface: parsing, exit codes, output round trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latsep import catalog, cli
from latsep.cli import MAX_PAR_K, main, parse_flag_file, parse_instance
from latsep.conditions import Partition
from latsep.errors import InstanceFormatError
from latsep.geometry import PointSet

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestParseInstance:
    def test_partition(self, tmp_path):
        path = _write(tmp_path, "p.json", {"dim": 2, "A": [[0, 0]], "B": [[1, 0]]})
        obj = parse_instance(path)
        assert isinstance(obj, Partition)

    def test_point_set(self, tmp_path):
        path = _write(tmp_path, "s.json", {"dim": 2, "S": [[0, 0], [1, 1]]})
        obj = parse_instance(path)
        assert isinstance(obj, PointSet) and len(obj) == 2

    def test_simplex_generator(self, tmp_path):
        path = _write(
            tmp_path,
            "sx.json",
            {"dim": 3, "simplex": [[0, 0, 0], [5, 0, 0], [0, 4, 0], [0, 0, 3]]},
        )
        obj = parse_instance(path)
        assert len(obj) == 28

    def test_box_generator(self, tmp_path):
        path = _write(tmp_path, "bx.json", {"dim": 2, "box": [[0, 0], [2, 1]]})
        obj = parse_instance(path)
        assert len(obj) == 6

    def test_overlap_diagnostic(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"dim": 1, "A": [[0]], "B": [[0]]})
        with pytest.raises(InstanceFormatError, match="overlap"):
            parse_instance(path)

    def test_malformed_json_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n "A": [[0, 0]\n}')
        with pytest.raises(InstanceFormatError, match="line"):
            parse_instance(str(path))

    def test_bad_vector_field_info(self, tmp_path):
        path = _write(tmp_path, "bad2.json", {"dim": 2, "S": [[0, 0], [1]]})
        with pytest.raises(InstanceFormatError, match="'S', entry 1"):
            parse_instance(str(path))

    def test_missing_payload(self, tmp_path):
        path = _write(tmp_path, "none.json", {"dim": 2})
        with pytest.raises(InstanceFormatError, match="exactly one"):
            parse_instance(path)

    @pytest.mark.parametrize(
        "extra", [{"S": [[5, 5]]}, {"box": [[0, 0], [1, 1]]}, {"simplex": [[0, 0], [2, 0], [0, 2]]}]
    )
    def test_partition_with_another_kind_is_refused(self, tmp_path, capsys, extra):
        # a file naming two kinds of instance is ambiguous, not a partition
        path = _write(tmp_path, "mixed.json", {"dim": 2, "A": [[0, 0]], "B": [[1, 1]], **extra})
        assert main(["separate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "expected exactly one of" in captured.err


class TestExitCodes:
    def test_par_fails_with_witness(self, tmp_path, capsys):
        path = _write(
            tmp_path, "p44.json", {"dim": 2, "A": [[0, 0], [1, 1]], "B": [[1, 0], [0, 1]]}
        )
        assert main(["check", "par", "--k", "2", path]) == 1
        out = capsys.readouterr().out
        assert "fails at order 2" in out

    def test_ray_holds(self, tmp_path):
        path = _write(
            tmp_path, "p44.json", {"dim": 2, "A": [[0, 0], [1, 1]], "B": [[1, 0], [0, 1]]}
        )
        assert main(["check", "ray", path]) == 0

    def test_ray_fails_with_the_line_trace(self, tmp_path, capsys):
        path = _write(tmp_path, "r.json", {"dim": 2, "A": [[0, 0], [2, 0]], "B": [[1, 0], [1, 1]]})
        assert main(["check", "ray", path]) == 1
        assert capsys.readouterr().out == (
            "fails on line through (0, 0) along (1, 0): (0, 0):A (1, 0):B (2, 0):A\n"
        )

    def test_separate_failure_prints_the_common_point(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "p48.json",
            {"dim": 3, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "B": [[0, 0, 0], [1, 1, 2]]},
        )
        assert main(["separate", path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "no separating flag exists"
        assert "weights total 4" in out[1]
        assert out[2:] == [
            "  A: 2*(0, 0, 1) + 1*(0, 1, 0) + 1*(1, 0, 0) = (1, 1, 2)",
            "  B: 3*(0, 0, 0) + 1*(1, 1, 2) = (1, 1, 2)",
        ]

    def test_separate_flag_round_trips(self, tmp_path, capsys):
        # a narrow LP, and the 289-point sqrt(2) window, whose LP is sifted
        window = catalog.sqrt2_halfplane_window(8)
        for name, obj in (
            ("gap", {"dim": 2, "A": [[1, 0], [2, 3]], "B": [[0, 0], [-1, 1]]}),
            ("window", {"dim": 2, "A": window.a.points, "B": window.b.points}),
        ):
            inst = _write(tmp_path, f"{name}.json", obj)
            assert main(["separate", inst]) == 0
            out = capsys.readouterr().out
            flag_json = out.split("flag json:\n", 1)[1].strip()
            flag_path = tmp_path / f"{name}-flag.json"
            flag_path.write_text(flag_json)
            assert main(["verify-flag", inst, "--flag", str(flag_path)]) == 0

    def test_separate_wide_failure_prints_a_balanced_common_point(self, tmp_path, capsys):
        # a 12 x 12 checkerboard: the hulls meet, and the LP is sifted
        board = [(x, y) for x in range(12) for y in range(12)]
        inst = _write(
            tmp_path,
            "board.json",
            {
                "dim": 2,
                "A": [q for q in board if sum(q) % 2 == 0],
                "B": [q for q in board if sum(q) % 2 == 1],
            },
        )
        assert main(["separate", inst]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "no separating flag exists"
        weight = int(out[1].split("weights total ")[1].split()[0])

        def point(text):
            return tuple(json.loads(text.replace("(", "[").replace(")", "]")))

        sums = []
        for line, side in zip(out[2:], ("A", "B")):
            terms, total = line.removeprefix(f"  {side}: ").split(" = ")
            pairs = [(int(c), point(q)) for c, q in (t.split("*") for t in terms.split(" + "))]
            assert all(q in board and sum(q) % 2 == "AB".index(side) for _, q in pairs)
            assert sum(c for c, _ in pairs) == weight
            assert point(total) == tuple(sum(c * q[i] for c, q in pairs) for i in range(2))
            sums.append(point(total))
        assert len(out) == 4 and sums[0] == sums[1]

    def test_verify_flag_rejects_wrong_side(self, tmp_path):
        inst = _write(
            tmp_path, "gap.json", {"dim": 2, "A": [[1, 0], [2, 3]], "B": [[0, 0], [-1, 1]]}
        )
        flag = _write(
            tmp_path,
            "wrong.json",
            {
                "dim": 2,
                "functionals": [{"normal": ["-1", "0"], "offset": "0"}],
                "residual_owner": "A",
            },
        )
        assert main(["verify-flag", inst, "--flag", flag]) == 1

    def test_structurally_invalid_flag_is_usage_error(self, tmp_path):
        inst = _write(
            tmp_path, "gap.json", {"dim": 2, "A": [[1, 0]], "B": [[0, 0]]}
        )
        flag = _write(
            tmp_path,
            "const.json",
            {
                "dim": 2,
                "functionals": [
                    {"normal": ["1", "0"], "offset": "0"},
                    {"normal": ["1", "0"], "offset": "0"},
                ],
                "residual_owner": "A",
            },
        )
        assert main(["verify-flag", inst, "--flag", flag]) == 2

    def test_unsupported_dimension_exit_3(self, tmp_path):
        # plot is the one command with a dimension limit
        path = _write(tmp_path, "d3.json", {"dim": 3, "S": [[0, 0, 0], [1, 1, 0]]})
        assert main(["plot", path, "-o", str(tmp_path / "d3.svg")]) == 3
        d4 = _write(tmp_path, "d4.json", {"dim": 4, "S": [[0, 0, 0, 0], [1, 1, 0, 0]]})
        assert main(["check", "integrally-convex", d4]) == 0

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["check", "ray", str(path)]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["check", "ray", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "instance",
        [
            {"dim": 2, "box": [[0, 0], [100000, 100000]]},
            {"dim": 2, "simplex": [[0, 0], [100000, 0], [0, 100000]]},
        ],
    )
    def test_huge_instance_refused_fast(self, tmp_path, capsys, instance):
        path = _write(tmp_path, "huge.json", instance)
        start = time.perf_counter()
        assert main(["check", "hole-free", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert "lattice points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["check", "hole-free"],
            ["check", "integrally-convex"],
            ["check", "k-convex", "--k", "2"],
            ["hull", "--k", "1"],
            ["holes"],
            ["lemma49"],
        ],
    )
    def test_spread_point_list_refused_before_any_scan(self, tmp_path, capsys, monkeypatch, command):
        # each command scans the lattice points of conv(S); should the
        # bound ever fail, the scan raises here instead of running
        def scan(*args):
            raise AssertionError("the hull of a spread point list was scanned")

        for name in ("is_hole_free", "is_integrally_convex", "is_k_convex", "k_convex_hull",
                     "classify_holes", "lemma_triple"):
            monkeypatch.setattr(cli, name, scan)
        far = [[0, 0], [10**9, 10**9], [0, 1]]
        for instance in ({"dim": 2, "S": far}, {"dim": 2, "A": far[:2], "B": far[2:]}):
            path = _write(tmp_path, "far.json", instance)
            assert main(command + [path]) == 2
            assert "lattice points" in capsys.readouterr().err

    def test_spread_partition_still_separates(self, tmp_path, capsys):
        # separate, par and ray never scan the hull, so they are not bounded
        path = _write(tmp_path, "far.json", {"dim": 2, "A": [[0, 0], [0, 1]], "B": [[10**9, 10**9]]})
        for command in (["separate"], ["check", "par"], ["check", "ray"]):
            assert main(command + [path]) == 0

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["check", "par"], ["check", "k-convex"], ["hull"]])
    def test_nonpositive_k_is_usage_error(self, tmp_path, capsys, command):
        # exit 1 would read as "the condition fails"
        path = _write(tmp_path, "p.json", {"dim": 2, "A": [[0, 0]], "B": [[1, 0]]})
        for k in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--k", k, path])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err

    def test_non_integer_k_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, "p.json", {"dim": 2, "A": [[0, 0]], "B": [[1, 0]]})
        with pytest.raises(SystemExit) as exc:
            main(["check", "par", "--k", "abc", path])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: latsep check par [-h] [--k K] file\n"
            "latsep check par: error: argument --k: expected a positive integer "
            f"up to {MAX_PAR_K}, got 'abc'\n"
        )

    @pytest.mark.parametrize(
        "instance",
        [
            {"dim": 2, "S": [[0, True], [2, 1]]},
            {"dim": 2, "A": [[0, 0]], "B": [[False, 1]]},
            {"dim": 2, "box": [[0, 0], [True, 1]]},
            {"dim": True, "S": [[0], [2]]},
        ],
    )
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, instance):
        # true would otherwise read as 1 and report a missing lattice point
        path = _write(tmp_path, "b.json", instance)
        assert main(["check", "hole-free", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_par_k_bounded_at_parse_time(self, tmp_path, capsys):
        # k = 2000 once ended in a MemoryError traceback with exit 1
        path = _write(tmp_path, "p.json", {"dim": 2, "A": [[0, 0], [1, 0]], "B": [[0, 1], [1, 1]]})
        for k in (str(MAX_PAR_K + 1), "2000"):
            with pytest.raises(SystemExit) as exc:
                main(["check", "par", "--k", k, path])
            assert exc.value.code == 2
            assert f"got '{k}'" in capsys.readouterr().err
        assert main(["check", "par", "--k", str(MAX_PAR_K), path]) == 0

    @pytest.mark.parametrize(
        "flag",
        [
            {"dim": True, "functionals": [], "residual_owner": "A"},
            {"dim": 2, "functionals": [{"normal": [True, 0], "offset": 0}], "residual_owner": "A"},
            {"dim": 2, "functionals": [{"normal": [1, 0], "offset": False}], "residual_owner": "A"},
            {"dim": 2, "functionals": 5, "residual_owner": "A"},
            [1, 2],
        ],
    )
    def test_malformed_flag_file_exit_2(self, tmp_path, capsys, flag):
        inst = _write(tmp_path, "gap.json", {"dim": 2, "A": [[1, 0]], "B": [[0, 0]]})
        path = _write(tmp_path, "flag.json", flag)
        with pytest.raises(InstanceFormatError):
            parse_flag_file(path)
        assert main(["verify-flag", inst, "--flag", path]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command",
        [
            ["explore", "equivalence", "--grid", "5x5"],
            ["explore", "conjecture", "--budget", "2", "--box", "-1"],
            ["explore", "conjecture", "--budget", "2", "--box", "125"],
            ["explore", "equivalence", "--grid", "2x2", "--jobs", "0"],
            ["explore", "equivalence", "--grid", "2x2", "--jobs", str((os.cpu_count() or 1) + 1)],
        ],
    )
    def test_explore_out_of_range_is_usage_error(self, capsys, command):
        # a 5x5 grid has 2**25 subsets, a negative box cannot be sampled,
        # box 125 would scan 126**3 > MAX_INSTANCE_POINTS points per
        # polytope, and a refused job count starts no process
        try:
            code = main(command)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, bad, good",
        [
            (["conjecture", "--budget"], "-3", "0"),
            (["conjecture", "--budget", "2", "--max-size"], "0", "2"),
            (["conjecture", "--budget", "2", "--max-size"], "28", "27"),
            (["equivalence", "--grid", "1x2", "--stop-after"], "0", "1"),
        ],
    )
    def test_explore_counts_bounded_at_parse_time(self, capsys, command, bad, good):
        # out of range is a usage error, not exit 0 having done nothing;
        # a set above 27 points would reach the hunt unbounded
        with pytest.raises(SystemExit) as exc:
            main(["explore", *command, bad])
        assert exc.value.code == 2
        assert f"got '{bad}'" in capsys.readouterr().err
        assert main(["explore", *command, good]) == 0

    @pytest.mark.parametrize("text", ["{nope", "[1, 2]"])
    @pytest.mark.parametrize(
        "mode", [["equivalence", "--grid", "2x2"], ["conjecture", "--budget", "2"]]
    )
    def test_malformed_checkpoint_exit_2(self, tmp_path, capsys, text, mode):
        path = tmp_path / "cp.json"
        path.write_text(text)
        assert main(["explore", *mode, "--checkpoint", str(path)]) == 2
        assert "error: checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize(
        "mode", [["equivalence", "--grid", "2x2"], ["conjecture", "--budget", "2"]]
    )
    def test_unusable_checkpoint_path_exit_2(self, tmp_path, capsys, where, mode):
        # an existing directory cannot be read, and a file in a missing
        # directory cannot be written
        path = tmp_path if where == "directory" else tmp_path / "nodir" / "cp.json"
        assert main(["explore", *mode, "--checkpoint", str(path)]) == 2
        assert "error: checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, state",
        [
            (
                ["equivalence", "--grid", "2x2"],
                {
                    "kind": "equivalence",
                    "dims": [2, 2],
                    "family": "integrally-convex",
                    "left": "parallelogram-2",
                    "right": "flag",
                },
            ),
            (
                ["conjecture", "--budget", "2"],
                {"kind": "conjecture", "seed": 0, "box": 2, "max_set_size": 12, "cursor": "x"},
            ),
        ],
    )
    def test_checkpoint_missing_or_ill_typed_field_exit_2(self, tmp_path, capsys, mode, state):
        path = _write(tmp_path, "cp.json", state)
        assert main(["explore", *mode, "--checkpoint", path]) == 2
        assert "error: checkpoint" in capsys.readouterr().err

    def test_checkpoint_of_other_settings_exit_2(self, tmp_path, capsys):
        # another run's checkpoint is refused, not restarted and overwritten
        path = tmp_path / "cp.json"
        assert main(["explore", "equivalence", "--grid", "2x3", "--checkpoint", str(path)]) == 0
        stored = path.read_bytes()
        capsys.readouterr()
        for other in (["equivalence", "--grid", "2x2"], ["conjecture", "--budget", "2"]):
            assert main(["explore", *other, "--checkpoint", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: checkpoint")
            assert "dims=[2, 3]" in err and 'kind="equivalence"' in err
            assert path.read_bytes() == stored


class TestCommands:
    def test_hull_lists_points(self, tmp_path, capsys):
        path = _write(tmp_path, "seg.json", {"dim": 2, "S": [[0, 0], [3, 3]]})
        assert main(["hull", "--k", "1", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["(0, 0)", "(1, 1)", "(2, 2)", "(3, 3)"]

    def test_holes_table(self, tmp_path, capsys):
        path = _write(
            tmp_path, "s543.json",
            {"dim": 3, "S": [[0, 0, 0], [5, 0, 0], [0, 4, 0], [0, 0, 3]]},
        )
        assert main(["holes", path]) == 0
        out = capsys.readouterr().out
        assert "hole (2, 1, 1) first_k 2" in out

    def test_lemma49(self, tmp_path, capsys):
        path = _write(tmp_path, "tri.json", {"dim": 2, "S": [[0, 0], [5, 1], [2, 5]]})
        assert main(["lemma49", path]) == 0
        out = capsys.readouterr().out
        assert "triple (1, 1) (2, 4) (4, 1)" in out or "triple" in out

    def test_lemma49_empty_interior(self, tmp_path, capsys):
        path = _write(tmp_path, "uni.json", {"dim": 2, "S": [[0, 0], [1, 0], [0, 1]]})
        assert main(["lemma49", path]) == 1
        assert "no interior points" in capsys.readouterr().err

    def test_catalog_run(self, capsys):
        assert main(["catalog", "run", "--id", "ex4.4"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] ex4.4" in out and "0 failed" in out

    def test_catalog_unknown_id(self, capsys):
        assert main(["catalog", "run", "--id", "nope"]) == 2

    def test_explore_equivalence_stream(self, capsys):
        rc = main([
            "explore", "equivalence", "--grid", "3x3", "--family", "hole-free",
            "--left", "parallelogram-2", "--right", "flag", "--stop-after", "1",
        ])
        assert rc == 1  # violations exist for this pair
        out = capsys.readouterr().out
        assert '"type": "violation"' in out

    def test_explore_conjecture_smoke(self, capsys):
        assert main(["explore", "conjecture", "--budget", "3", "--seed", "1"]) == 0
        assert "counterexamples 0" in capsys.readouterr().out

    def test_plot_structure(self, tmp_path):
        inst = _write(
            tmp_path, "p44.json", {"dim": 2, "A": [[0, 0], [1, 1]], "B": [[1, 0], [0, 1]]}
        )
        out = tmp_path / "fig.svg"
        assert main(["plot", inst, "-o", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml") and "</svg>" in svg
        assert svg.count("<circle") == 4

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_plot_unwritable_output_exit_2(self, tmp_path, capsys, where):
        inst = _write(tmp_path, "seg.json", {"dim": 2, "S": [[0, 0], [1, 1]]})
        out = tmp_path / "nodir" / "x.svg" if where == "missing directory" else tmp_path
        assert main(["plot", inst, "-o", str(out)]) == 2
        assert "error: output" in capsys.readouterr().err

    def test_plot_with_flag_line(self, tmp_path):
        inst = _write(
            tmp_path, "gap.json", {"dim": 2, "A": [[2, 0], [3, 1]], "B": [[0, 0], [0, 1]]}
        )
        flag = _write(
            tmp_path,
            "flag.json",
            {
                "dim": 2,
                "functionals": [{"normal": ["1", "0"], "offset": "1"}],
                "residual_owner": "empty",
            },
        )
        out = tmp_path / "fig.svg"
        assert main(["plot", inst, "--flag", flag, "-o", str(out)]) == 0
        assert "<line" in out.read_text()

    def test_plot_refuses_a_flag_of_another_dimension(self, tmp_path, capsys):
        flag = _write(
            tmp_path,
            "flag3.json",
            {
                "dim": 3,
                "functionals": [{"normal": ["1", "1", "0"], "offset": "0"}],
                "residual_owner": "A",
            },
        )
        out = tmp_path / "fig.svg"
        inst = str(ROOT / "instances" / "ex4.4.json")
        assert main(["plot", inst, "--flag", flag, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "dimension 3" in err and "dimension 2" in err
        assert not out.exists()

    def test_python_dash_m_runs_the_cli(self):
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "latsep", "check", "integrally-convex", "instances/ex4.4.json"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("holds")


def test_parse_flag_file_fractions(tmp_path):
    flag_path = tmp_path / "f.json"
    flag_path.write_text(
        json.dumps(
            {
                "dim": 2,
                "functionals": [{"normal": ["-99/70", 1], "offset": 0}],
                "residual_owner": "A",
            }
        )
    )
    g = parse_flag_file(str(flag_path)).functionals[0]
    assert (g.normal, g.offset) == ((-99, 70), 0)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["args"]))
def test_golden_stdout_and_exit_code(case, capsys, monkeypatch):
    """Every command that applies to a file in instances/ prints exactly
    the stdout, and exits with exactly the code, frozen in cli_golden.json."""
    monkeypatch.chdir(ROOT)
    assert main(case["args"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
