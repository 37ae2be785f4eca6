import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from dncap import maxent, solvers, systems
from dncap.cli import main

MEM_EQUAL = {
    "kind": "memoryless",
    "symbols": [
        {"label": "0", "weight": "1"},
        {"label": "1", "weight": "1"},
    ],
}
MEM_UNEQUAL = {
    "kind": "memoryless",
    "symbols": [
        {"label": "0", "weight": "1"},
        {"label": "1", "weight": "2"},
    ],
}
DYCK = {"kind": "builtin", "name": "dyck_prefix"}
# its density fit has K near 800, so n ** K leaves the float range
HEAVY = {
    "kind": "memoryless",
    "symbols": [
        {"label": "a", "weight": "1000"},
        {"label": "b", "weight": "1001"},
    ],
}
RLL13 = {"kind": "builtin", "name": "rll", "d": 1, "k": 3}
GOLDEN_FSM = {
    "kind": "fsm",
    "states": 2,
    "start": 0,
    "transitions": [
        {"from": 0, "label": "0", "weight": "1", "to": 0},
        {"from": 0, "label": "1", "weight": "1", "to": 1},
        {"from": 1, "label": "0", "weight": "1", "to": 0},
    ],
}


class TestEnumerate:
    def test_dyck_twelve_rows(self, tmp_spec, capsys):
        code = main(["enumerate", tmp_spec(DYCK), "--wmax", "12"])
        captured = capsys.readouterr()
        assert code == 0
        rows = [l for l in captured.out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 12
        assert rows[-1].split("\t")[:2] == ["12/1", "924"]
        assert "empirical capacity" in captured.out

    def test_powers_of_two(self, tmp_spec, capsys):
        code = main(["enumerate", tmp_spec(MEM_EQUAL), "--wmax", "5"])
        rows = [
            l for l in capsys.readouterr().out.splitlines()
            if l and not l.startswith("#")
        ]
        assert code == 0
        assert [r.split("\t")[1] for r in rows] == ["2", "4", "8", "16", "32"]

    def test_out_file(self, tmp_spec, tmp_path, capsys):
        out = tmp_path / "spectrum.tsv"
        code = main(
            ["enumerate", tmp_spec(MEM_UNEQUAL), "--wmax", "6", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("\n") == 7  # header + 6 rows
        assert "density" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["stdout", "out_file"])
    def test_failing_summary_writes_nothing(self, tmp_spec, tmp_path, capsys, target):
        # a one-entry spectrum has no empirical capacity
        out = tmp_path / "spectrum.tsv"
        argv = ["enumerate", tmp_spec(DYCK), "--wmax", "1"]
        assert main(argv + (["--out", str(out)] if target == "out_file" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: empirical capacity needs a spectrum with >= 2 entries\n"
        )
        assert not out.exists()

    def test_density_fit_past_the_float_range_fails(self, tmp_spec, capsys):
        code = main(["enumerate", tmp_spec(HEAVY), "--wmax", "10000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == (
            "# density: fitted_K=811.13293188003502 fitted_L=0 passes=False"
        )

    def test_malformed_json(self, tmp_spec, capsys):
        code = main(["enumerate", tmp_spec("{not json"), "--wmax", "4"])
        assert code == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_field_is_named(self, tmp_spec, capsys):
        code = main(["enumerate", tmp_spec({"kind": "memoryless"}), "--wmax", "4"])
        assert code == 1
        assert "symbols" in capsys.readouterr().err

    def test_bad_weight_is_located(self, tmp_spec, capsys):
        doc = {
            "kind": "memoryless",
            "symbols": [{"label": "0", "weight": "zero"}],
        }
        code = main(["enumerate", tmp_spec(doc), "--wmax", "4"])
        assert code == 1
        assert "symbols[0]" in capsys.readouterr().err

    def test_dead_end_fsm_is_rejected(self, tmp_spec, capsys):
        doc = {
            "kind": "fsm",
            "states": 2,
            "start": 0,
            "transitions": [{"from": 0, "label": "a", "weight": "1", "to": 1}],
        }
        code = main(["enumerate", tmp_spec(doc), "--wmax", "4"])
        assert code == 1
        assert "dead end" in capsys.readouterr().err

    def test_huge_state_count_is_a_dead_end(self, tmp_spec, capsys):
        doc = {
            "kind": "fsm",
            "states": 10 ** 12,
            "start": 0,
            "transitions": [{"from": 0, "label": "a", "weight": "1", "to": 0}],
        }
        code = main(["capacity", tmp_spec(doc)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: spec: state 1 is a dead end (every state needs a successor)\n"

    def test_deeply_nested_json_exits_one(self, tmp_spec, capsys):
        code = main(["capacity", tmp_spec("[" * 200000)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "nested too deeply" in err

    @pytest.mark.parametrize("command", [
        ["enumerate", "--wmax", "4"],
        ["capacity"],
        ["maxent", "--lmax", "4"],
        ["sample", "--count", "2", "--steps", "3", "--seed", "1"],
        ["verify"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("weight", ["1e400", "1e-400"])
    def test_weight_outside_the_float_range_exits_one(
        self, tmp_spec, capsys, command, weight
    ):
        doc = {"kind": "memoryless", "symbols": [
            {"label": "a", "weight": "1"}, {"label": "b", "weight": weight},
        ]}
        code = main([command[0], tmp_spec(doc), *command[1:]])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == (f"error: spec.symbols[1].weight: symbol 'b': weight {weight} "
                       "is outside the float range\n")

    @pytest.mark.parametrize("command", [
        ["enumerate", "--wmax", "5"], ["capacity", "--method", "abscissa"],
    ], ids=lambda command: command[0])
    def test_tiny_weight_stops_at_the_walk_budget(
        self, tmp_spec, capsys, monkeypatch, command
    ):
        # 5 * 10^300 units of 1e-300 below w_max; at the budget of 2^22
        # expansions the same run exits 3 after several seconds
        monkeypatch.setattr(maxent, "LEVEL_BUDGET", 2 ** 14)
        doc = {"kind": "memoryless", "symbols": [
            {"label": "a", "weight": "1"}, {"label": "b", "weight": "1e-300"},
        ]}
        code = main([command[0], tmp_spec(doc), *command[1:]])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("error: weight spectrum walk to w_max ")
        assert "exceeded budget of 16384 expansions at depth " in err

    def test_boolean_fsm_fields_are_rejected(self, tmp_spec, capsys):
        doc = {
            "kind": "fsm",
            "states": True,
            "start": False,
            "transitions": [{"from": False, "label": "a", "weight": "1", "to": 0}],
        }
        code = main(["capacity", tmp_spec(doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert "spec.states: expected" in err and "got bool" in err
        assert err == "error: spec.states: expected an integer, got bool\n"

    def test_boolean_builtin_parameter_is_rejected(self, tmp_spec, capsys):
        doc = {"kind": "builtin", "name": "rll", "d": True, "k": 3}
        code = main(["capacity", tmp_spec(doc)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "spec.d: expected" in err and "got bool" in err


class TestCapacity:
    def test_abscissa_refuses_a_density_fit_past_the_float_range(self, tmp_spec, capsys):
        code = main(
            ["capacity", tmp_spec(HEAVY), "--method", "abscissa", "--wmax", "10000"]
        )
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("error: weight sequence densifies faster than polynomially")

    def test_unequal_auto_uses_root(self, tmp_spec, capsys):
        code = main(["capacity", tmp_spec(MEM_UNEQUAL)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "characteristic_root"
        assert abs(doc["value"] - 0.481211825) < 1e-7
        assert set(doc) == {"method", "value", "bracket", "residual", "iterations"}

    def test_rll_builtin_spectral(self, tmp_spec, capsys):
        code = main(["capacity", tmp_spec(RLL13)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "spectral_radius"
        assert abs(doc["value"] - 0.3822) < 1e-3

    def test_dyck_auto_uses_abscissa(self, tmp_spec, capsys):
        code = main(["capacity", tmp_spec(DYCK), "--wmax", "30"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "abscissa"

    def test_root_method_refuses_non_memoryless(self, tmp_spec, capsys):
        code = main(["capacity", tmp_spec(DYCK), "--method", "root"])
        assert code == 1
        assert "root method requires" in capsys.readouterr().err

    def test_spectral_on_memoryless_via_one_state_fsm(self, tmp_spec, capsys):
        code = main(["capacity", tmp_spec(MEM_EQUAL), "--method", "spectral"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(doc["value"] - math.log(2)) < 1e-9

    def test_iteration_cap_exits_three(self, tmp_spec, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 0)
        code = main(["capacity", tmp_spec(MEM_UNEQUAL), "--method", "spectral"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: Newton")


class TestMaxent:
    def test_level_table(self, tmp_spec, capsys):
        code = main(["maxent", tmp_spec(MEM_UNEQUAL), "--lmax", "6"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 6
        assert "maxent_level_rates" in out

    def test_deep_levels_do_not_overflow(self):
        # level 1024 holds 2**1024 paths, beyond the float range
        spec = Path(__file__).resolve().parent.parent / "demos/specs/binary_equal.json"
        result = subprocess.run(
            [sys.executable, "-m", "dncap.cli", "maxent", str(spec), "--lmax", "1030"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        rows = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        assert len(rows) == 1030
        assert abs(float(rows[-1].split("\t")[2]) - math.log(2)) <= 1e-15


@pytest.mark.parametrize("command, bound", [("enumerate", "--wmax"), ("maxent", "--lmax")])
def test_counts_past_the_int_to_str_limit(tmp_spec, capsys, command, bound):
    # 2**2200 has 663 digits, past the lowest limit CPython allows (640)
    expected = str(2 ** 2200)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main([command, tmp_spec(MEM_EQUAL), bound, "2200"])
    finally:
        sys.set_int_max_str_digits(previous)
    out = capsys.readouterr().out
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 2200
    assert rows[-1][1] == expected
    assert rows[1][1] == "4"


class TestSample:
    def test_fsm_sampling_roundtrip(self, tmp_spec, capsys):
        args = ["sample", tmp_spec(GOLDEN_FSM), "--count", "5", "--steps", "12",
                "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        rows = [l for l in first.splitlines() if not l.startswith("#")]
        assert len(rows) == 5
        assert all("11" not in row.split("\t")[0] for row in rows)

    def test_fsm_sampling_labels_components_once(self, tmp_spec, monkeypatch):
        # the chain's connectivity check and its capacity read one labelling
        calls, label = [], systems.strong_components

        def counted(*args):
            calls.append(1)
            return label(*args)

        for name, module in list(sys.modules.items()):  # every holder of it
            held = vars(module).get("strong_components")
            if name.startswith("dncap") and held is label:
                monkeypatch.setattr(module, "strong_components", counted)
        code = main(["sample", tmp_spec(GOLDEN_FSM), "--count", "2", "--steps", "3",
                     "--seed", "1"])
        assert code == 0
        assert calls == [1]

    def test_memoryless_sampling(self, tmp_spec, capsys):
        code = main(["sample", tmp_spec(MEM_EQUAL), "--count", "3", "--steps", "4",
                     "--seed", "1"])
        assert code == 0
        rows = [
            l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")
        ]
        assert len(rows) == 3

    def test_generator_sampling_uses_level_fallback(self, tmp_spec, capsys):
        code = main(["sample", tmp_spec(DYCK), "--count", "4", "--steps", "6",
                     "--seed", "5"])
        assert code == 0
        rows = [
            l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")
        ]
        assert len(rows) == 4
        for row in rows:
            word = row.split("\t")[0]
            balance = 0
            for ch in word:
                balance += 1 if ch == "(" else -1
                assert balance >= 0

    def test_root_subtree_sum_fault_exits_three(self, tmp_spec, capsys, monkeypatch):
        solve = maxent._solve_levels

        def off_by_a_little(rows, first):
            return [dataclasses.replace(solution, rate=solution.rate + 1e-6)
                    for solution in solve(rows, first)]

        monkeypatch.setattr(maxent, "_solve_levels", off_by_a_little)
        code = main(["sample", tmp_spec(DYCK), "--count", "2", "--steps", "20",
                     "--seed", "0"])
        assert code == 3
        assert "root subtree sum" in capsys.readouterr().err

    def test_deep_level_sampling_exits_cleanly(self):
        # the recursive subtree sum raised RecursionError from level 499 on
        spec = Path(__file__).resolve().parent.parent / "demos/specs/dyck_prefix.json"
        result = subprocess.run(
            [sys.executable, "-m", "dncap.cli", "sample", str(spec),
             "--count", "2", "--steps", "520", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        rows = [l for l in result.stdout.splitlines() if not l.startswith("#")]
        assert len(rows) == 2


class TestVerify:
    def test_equal_weights_pass(self, tmp_spec, capsys):
        code = main(["verify", tmp_spec(MEM_EQUAL), "--wmax", "20", "--lmax", "10",
                     "--tol", "1e-9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "PASS"
        assert doc["system"] == MEM_EQUAL

    def test_unequal_weights_pass(self, tmp_spec, capsys):
        code = main(["verify", tmp_spec(MEM_UNEQUAL), "--wmax", "20", "--lmax", "10",
                     "--tol", "1e-9"])
        assert code == 0

    def test_dyck_pass_at_forty(self, tmp_spec, capsys):
        code = main(["verify", tmp_spec(DYCK), "--wmax", "40", "--lmax", "40",
                     "--tol", "0.06"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["epsilon_probes"] == {"ae_pass": True, "io_pass": True}

    def test_bad_w_max_exits_one_on_a_regular_channel(self, tmp_spec, capsys):
        for w_max in ("-3", "abc"):
            code = main(["verify", tmp_spec(GOLDEN_FSM), "--wmax", w_max])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error" in captured.err

    def test_fail_exit_code(self, tmp_spec, capsys):
        code = main(["verify", tmp_spec(GOLDEN_FSM), "--wmax", "15", "--lmax", "8",
                     "--tol", "1e-9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["verdict"] == "FAIL"


    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_meaningless_tolerance_exits_one(self, tmp_spec, capsys, tol):
        code = main(["verify", tmp_spec(GOLDEN_FSM), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: tol must be finite and >= 0, not {float(tol)}\n"


class TestUsage:
    @pytest.mark.parametrize("command", [
        ["enumerate", "--wmax", "4"],
        ["maxent", "--lmax", "4"],
        ["sample", "--count", "2", "--steps", "3", "--seed", "1"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_one(self, tmp_spec, tmp_path, capsys, command, where):
        out = tmp_path / "missing" / "x.tsv" if where == "missing_dir" else tmp_path
        argv = [command[0], tmp_spec(MEM_EQUAL), *command[1:], "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_spec, capsys):
        assert main(["enumerate", tmp_spec(MEM_EQUAL)]) == 1

    def test_module_entry_point(self, tmp_spec):
        result = subprocess.run(
            [sys.executable, "-m", "dncap.cli", "capacity", tmp_spec(MEM_EQUAL)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert abs(json.loads(result.stdout)["value"] - math.log(2)) < 1e-9
