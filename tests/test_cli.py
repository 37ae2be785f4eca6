import argparse
import dataclasses
import io
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from dncap import cli, maxent, solvers, spectrum, systems
from dncap.cli import main
from conftest import counted_calls

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
# sparse and heavy: a handful of spectrum entries up to 3 * 10^7
SPARSE = {
    "kind": "memoryless",
    "symbols": [
        {"label": "a", "weight": "1000000"},
        {"label": "b", "weight": "1000001"},
    ],
}
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

# state 0 leads to state 1's loop and is never re-entered
ONE_WAY_FSM = {
    "kind": "fsm",
    "states": 2,
    "start": 0,
    "transitions": [
        {"from": 0, "label": "a", "weight": "1", "to": 1},
        {"from": 1, "label": "b", "weight": "1", "to": 1},
    ],
}


def _run_in_a_gigabyte(*argv):
    """``python -m dncap.cli *argv`` in a child process whose address space
    is capped at 10^9 bytes; the cap is set in the child alone."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))

    return subprocess.run([sys.executable, "-m", "dncap.cli", *argv],
                          capture_output=True, text=True, preexec_fn=cap)


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

    def test_sparse_heavy_spectrum_fits_in_a_gigabyte(self, tmp_spec):
        # the density check once built a tuple of every integer up to w_max
        result = _run_in_a_gigabyte("enumerate", tmp_spec(SPARSE), "--wmax", "30000000")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1].endswith(" passes=False")

    def test_steps_past_2_53_fit_an_infinite_exponent(self, tmp_spec, capsys):
        # n and n + 1 share a float log there, so the slope between them is inf
        doc = {"kind": "memoryless", "symbols": [
            {"label": "a", "weight": "10000000000000000"},
            {"label": "b", "weight": "10000000000000001"},
        ]}
        code = main(["enumerate", tmp_spec(doc), "--wmax", "20000000000000002"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "# density: fitted_K=inf fitted_L=0 passes=False"

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
        ["enumerate", "--wmax", "1e309"],
        ["maxent", "--lmax", "5"],
        ["capacity", "--method", "abscissa", "--wmax", "1e309"],
        ["verify", "--wmax", "1e309", "--lmax", "5"],
        ["sample", "--count", "2", "--steps", "5", "--seed", "1"],
    ], ids=lambda command: command[0])
    def test_path_weight_past_the_float_range_exits_three(
        self, tmp_spec, capsys, command
    ):
        # each weight is a float, but a path of two weighs over 1e308; these
        # printed a traceback, and sample an inf weight and a numpy warning
        doc = {"kind": "memoryless", "symbols": [
            {"label": "a", "weight": "5e307"}, {"label": "b", "weight": "6e307"},
        ]}
        code = main([command[0], tmp_spec(doc), *command[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert "weight is past the float range" in err

    @pytest.mark.parametrize("weight", ["1_000", "1 / 2"])
    def test_weight_grammar_is_the_same_on_every_python(self, tmp_spec, capsys, weight):
        # Fraction reads "1_000" from Python 3.11 on and "1 / 2" from 3.12 on
        doc = {"kind": "memoryless", "symbols": [
            {"label": "a", "weight": "1"}, {"label": "b", "weight": weight},
        ]}
        for argv in (["capacity", tmp_spec(doc)],
                     ["enumerate", tmp_spec(MEM_EQUAL, "equal.json"), "--wmax", weight]):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and repr(weight) in err

    @pytest.mark.parametrize("command", [
        ["enumerate", "--wmax", "5"], ["capacity", "--method", "abscissa"],
    ], ids=lambda command: command[0])
    def test_tiny_weight_stops_at_the_walk_budget(
        self, tmp_spec, capsys, monkeypatch, command
    ):
        # 5 * 10^300 units of 1e-300 below w_max; at the budget of 2^22
        # expansions the same run exits 3 after several seconds, having
        # reached a weight of about 10^6 units
        monkeypatch.setattr(spectrum, "LEVEL_BUDGET", 2 ** 14)
        doc = {"kind": "memoryless", "symbols": [
            {"label": "a", "weight": "1"}, {"label": "b", "weight": "1e-300"},
        ]}
        code = main([command[0], tmp_spec(doc), *command[1:]])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("error: weight spectrum walk to w_max ")
        assert "exceeded budget of 16384 expansions at weight 4.096e-297\n" in err

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

    def test_root_method_is_an_invalid_choice(self, tmp_spec, capsys):
        # auto already takes the characteristic root of a memoryless alphabet
        code = main(["capacity", tmp_spec(MEM_EQUAL), "--method", "root"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: argument --method: invalid choice: 'root'")

    def test_probe_contradiction_exits_three(self, capsys):
        spec = Path(__file__).resolve().parent.parent / "demos/specs/dyck_prefix.json"
        code = main(["capacity", str(spec), "--wmax", "2"])
        assert code == 3
        assert capsys.readouterr() == ("", (
            "error: convergence probe contradicts the abscissa estimate 0.346574: "
            "converges_above=False, diverges_below=True\n"))

    def test_spectral_method_is_an_invalid_choice(self, tmp_spec, capsys):
        # auto already takes the spectral radius of a multi-state FSM
        code = main(["capacity", tmp_spec(MEM_EQUAL), "--method", "spectral"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --method: invalid choice: 'spectral'")

    @pytest.mark.parametrize("wmax", ["abc", "0", "-3"])
    @pytest.mark.parametrize("spec", [MEM_UNEQUAL, RLL13], ids=["memoryless", "fsm"])
    def test_a_bad_wmax_exits_one_on_a_regular_channel(self, tmp_spec, capsys, spec, wmax):
        code = main(["capacity", tmp_spec(spec), "--wmax", wmax])
        message = ("not a valid rational weight: 'abc'" if wmax == "abc"
                   else "w_max must be positive")
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_iteration_cap_exits_three(self, tmp_spec, capsys, monkeypatch):
        # the characteristic root and the spectral radius are both Newton's
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 0)
        for spec in (MEM_UNEQUAL, RLL13):
            code = main(["capacity", tmp_spec(spec)])
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


@pytest.mark.parametrize("limit", [640, sys.int_info.default_max_str_digits, 0])
@pytest.mark.parametrize("command, bound", [("enumerate", "--wmax"), ("maxent", "--lmax")])
def test_counts_past_the_int_to_str_limit(tmp_spec, capsys, command, bound, limit):
    # 2**2200 has 663 digits, past the lowest limit CPython allows (640); 0
    # is no limit
    expected = str(2 ** 2200)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
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
        calls = counted_calls(monkeypatch, systems.strong_components)
        code = main(["sample", tmp_spec(GOLDEN_FSM), "--count", "2", "--steps", "3",
                     "--seed", "1"])
        assert code == 0
        assert calls == [1]

    def test_a_reducible_fsm_exits_one_before_any_perron_solve(
            self, tmp_spec, capsys, monkeypatch):
        calls = counted_calls(monkeypatch, solvers.perron)
        code = main(["sample", tmp_spec(ONE_WAY_FSM), "--count", "2", "--steps", "3",
                     "--seed", "1"])
        assert code == 1
        assert capsys.readouterr() == ("", (
            "error: chain construction needs a strongly connected FSM "
            "(otherwise the Perron eigenvector is not unique)\n"))
        assert calls == []

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

    @pytest.mark.parametrize("spec", [GOLDEN_FSM, DYCK], ids=["fsm", "level"])
    def test_negative_seed_exits_one(self, spec, tmp_spec, capsys):
        code = main(["sample", tmp_spec(spec), "--count", "2", "--steps", "5",
                     "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0\n")

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

    def test_out_of_memory_exits_three(self):
        # 10^9 paths of 100 labels pass the sample budget before any array
        spec = Path(__file__).resolve().parent.parent / "demos/specs/golden_mean.json"
        result = _run_in_a_gigabyte("sample", str(spec), "--count", str(10 ** 9),
                                    "--steps", "100", "--seed", "1")
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

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


# MEM_UNEQUAL as the one-state FSM whose self-loops are its symbols
MEM_UNEQUAL_FSM = {
    "kind": "fsm",
    "states": 1,
    "start": 0,
    "transitions": [dict(symbol, **{"from": 0, "to": 0})
                    for symbol in MEM_UNEQUAL["symbols"]],
}


@pytest.mark.parametrize("command", [
    ["enumerate", "--wmax", "20"],
    ["capacity"],
    ["capacity", "--method", "abscissa", "--wmax", "20"],
    ["maxent", "--lmax", "10"],
    ["sample", "--count", "3", "--steps", "12", "--seed", "1"],
    ["verify", "--wmax", "20", "--lmax", "10", "--tol", "1e-9"],
], ids=" ".join)
def test_one_channel_one_answer(tmp_spec, capsys, command):
    # a memoryless channel is its one-state FSM, whichever spec names it
    outputs = []
    for doc, name in ((MEM_UNEQUAL, "memoryless.json"), (MEM_UNEQUAL_FSM, "fsm.json")):
        code = main([command[0], tmp_spec(doc, name), *command[1:]])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        if command[0] == "verify":
            parsed = json.loads(out)
            assert parsed.pop("system") == doc
            out = json.dumps(parsed)
        outputs.append(out)
    assert outputs[0] == outputs[1]


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

    def test_one_parser_serves_every_call_in_a_process(self, tmp_spec, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def run(argv):
            """(parsers built, exit code, stdout, stderr) of one call."""
            before = len(built)
            try:
                code = main(argv)
            except SystemExit as stop:  # --help
                code = ("exit", stop.code)
            return (len(built) - before, code, *capsys.readouterr())

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        spec = tmp_spec(GOLDEN_FSM)
        calls = [["capacity", spec], ["capacity", spec, "--wmax"], ["--help"],
                 ["maxent", spec, "--lmax", "5"], ["capacity", spec]]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        cli._parser.cache_clear()
        kept = [run(argv) for argv in calls]
        assert [runs for runs, *_ in fresh] == [6] * 5
        assert [runs for runs, *_ in kept] == [6, 0, 0, 0, 0]
        assert [code for _, code, *_ in kept] == [0, 1, ("exit", 0), 0, 0]
        assert [output for _, *output in kept] == [output for _, *output in fresh]
        assert kept[1][3].startswith("error: argument --wmax: expected one argument")
        assert kept[2][2].startswith("usage: dncap")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "binary_unequal.json", "--wmax", "3000"],
        ["maxent", "golden_mean.json", "--lmax", "3000"],
        ["sample", "golden_mean.json", "--count", "30000", "--steps", "30", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_a_closed_stdout_exits_one_with_no_traceback(self, argv):
        # about 1 MB of table, far past a pipe's buffer, then a summary line;
        # or about 2 MB of samples and no summary line
        command, spec, *flags = argv
        spec = Path(__file__).resolve().parent.parent / "demos/specs" / spec
        with subprocess.Popen([sys.executable, "-m", "dncap.cli", command, str(spec),
                               *flags], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"# ")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        assert (code, err) == (1, b"")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["capacity", "golden_mean.json"],
        ["sample", "golden_mean.json", "--count", "30000", "--steps", "30", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_a_full_stdout_exits_one_with_one_error_line(self, argv):
        # one short line that fails at the last flush, or about 2 MB that fail
        # part way through
        command, spec, *flags = argv
        spec = Path(__file__).resolve().parent.parent / "demos/specs" / spec
        with open("/dev/full", "wb") as full:
            result = subprocess.run([sys.executable, "-m", "dncap.cli", command,
                                     str(spec), *flags], stdout=full,
                                    stderr=subprocess.PIPE, text=True)
        assert (result.returncode, result.stderr) == (
            1, "error: cannot write stdout: No space left on device\n")

    def test_a_broken_pipe_without_a_descriptor_exits_one(self, tmp_spec, capsys,
                                                          monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        spec = tmp_spec(MEM_EQUAL)
        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["capacity", spec]) == 1
        assert capsys.readouterr().err == ""

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_module_entry_point(self, tmp_spec):
        result = subprocess.run(
            [sys.executable, "-m", "dncap.cli", "capacity", tmp_spec(MEM_EQUAL)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert abs(json.loads(result.stdout)["value"] - math.log(2)) < 1e-9
