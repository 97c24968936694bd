import ast
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import matprod
from matprod import cli
from matprod.cli import main
from matprod.schatten import format_float
from matprod.streams import DEFAULT_SEED

E = math.e


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc, json.loads(out), err


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SCALAR_SPEC = {
    "factors": [{"ensemble": {"kind": "bounded-perturbation", "dim": 1,
                              "radius": 0.1, "n_scale": 1.0},
                 "count": 2}],
    "z0": "identity",
    "mode": "independent",
}


class TestUsage:
    def test_no_subcommand(self, capsys):
        rc, payload, _ = run_json(capsys)
        assert rc == 1
        assert payload["error"]["code"] == "usage"

    def test_missing_config(self, capsys):
        rc, payload, _ = run_json(capsys, "bound")
        assert rc == 1
        assert payload["error"]["code"] == "usage"

    def test_unknown_preset_lists_presets(self, capsys):
        rc, payload, _ = run_json(capsys, "bound", "--config", "no-such-preset")
        assert rc == 1
        assert payload["error"]["code"] == "invalid-input"
        assert "perturbation" in payload["error"]["message"]
        assert "two-point-scalar" in payload["error"]["message"]

    def test_invalid_json_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, payload, _ = run_json(capsys, "bound", "--config", str(path))
        assert rc == 1
        assert payload["error"]["code"] == "invalid-input"

    def test_config_root_must_be_object(self, capsys, tmp_path):
        path = write_config(tmp_path, [1, 2, 3])
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 1
        assert "root" in payload["error"]["message"]

    def test_negative_seed(self, capsys, tmp_path):
        path = write_config(tmp_path, {"kind": "scalar", "mu": 0.0, "b": 1.0,
                                       "n": 10, "s_value": 0.5})
        rc, payload, _ = run_json(capsys, "bound", "--config", path, "--seed", "-1")
        assert rc == 1
        assert "seed" in payload["error"]["message"]

    def test_usage_error_after_a_run_reports_the_same(self, capsys):
        first = run_cli(capsys, "bound", "--seed", "x")
        assert run_cli(capsys, "bound", "--config", "lt-scenario")[0] == 0
        again = run_cli(capsys, "bound", "--seed", "x")
        assert first[0] == again[0] == 1
        assert json.loads(again[1])["error"]["code"] == "usage"
        assert again == first

    # no command and a missing --config are test_no_subcommand and test_missing_config
    @pytest.mark.parametrize("argv", [
        ["frobnicate", "--config", "lt-scenario"],
        ["--config", "lt-scenario", "bound"],
        ["bound", "lt-scenario"],
        ["bound", "--config", "lt-scenario", "--bogus", "1"],
        ["bound", "--conf", "lt-scenario"],
        ["bound", "-c", "lt-scenario"],
        ["bound", "--config"],
        ["bound", "--config", "--seed", "7"],
        ["bound", "--config", "lt-scenario", "--seed"],
        ["bound", "--config", "lt-scenario", "--seed", "x"],
        ["bound", "--config", "lt-scenario", "--seed=1.5"],
        ["simulate", "--config", "two-point-scalar", "--trials", "many"],
        ["bound", "--config", "lt-scenario", "--format", "xml"],
        ["bound", "--config", "lt-scenario", "--format="],
        ["bound", "--config="],
        ["bound", "--config", ""],
        ["bound", "--config", "lt-scenario", "--out="],
        ["compare", "--seed", "7", "--trials", "10"],
    ], ids=" ".join)
    def test_usage_errors(self, capsys, argv):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "usage"

    def test_usage_error_goes_to_stdout_not_to_out(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        rc, payload, _ = run_json(capsys, "bound", "--out", str(target), "--seed", "x")
        assert rc == 1
        assert payload["error"]["code"] == "usage"
        assert not target.exists()

    def test_equals_form_and_last_repeat(self, capsys):
        spaced = run_cli(capsys, "bound", "--config", "lt-scenario", "--seed", "7")
        assert spaced[0] == 0 and json.loads(spaced[1])["seed"] == 7
        assert run_cli(capsys, "bound", "--config=lt-scenario", "--seed=7") == spaced
        assert run_cli(capsys, "bound", "--config", "perturbation", "--seed", "1",
                       "--format", "csv", "--config=lt-scenario", "--seed", "7",
                       "--format", "json") == spaced

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["bound", "-h"],
                                      ["--help", "compare"], ["verify", "--seed", "7", "-h"]])
    def test_help(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0 and err == ""
        assert out.startswith("usage: matprod {bound,simulate,verify,compare}")
        presets = sorted(p.stem for p in (Path(cli.__file__).parent / "presets").glob("*.json"))
        assert presets and all(name in out for name in presets)
        assert str(DEFAULT_SEED) in out

    @pytest.mark.parametrize("command,cfg", [
        ("bound", {"kind": "perturbation"}),
        ("bound", {"kind": "perturbation", "d": "x", "n": 10, "b": 1.0}),
        ("simulate", {"factors": [{"ensemble": {"kind": "rademacher-rank-one",
                                                "dim": "three"}}]}),
        ("simulate", {"factors": [{"ensemble": {"kind": "rademacher-rank-one", "dim": 3}}],
                      "trials": "many"}),
        ("bound", {"kind": "moment", "d": 2,
                   "factors": [{"mean_norm": "big", "sigma": 0.1}]}),
    ], ids=["missing-d", "d-not-int", "dim-not-int", "trials-not-int", "mean-norm-not-float"])
    def test_malformed_config_value(self, capsys, tmp_path, command, cfg):
        rc, payload, _ = run_json(capsys, command, "--config", write_config(tmp_path, cfg))
        assert rc == 1
        assert payload["error"]["code"] == "invalid-input"

    @pytest.mark.parametrize("text", [
        '{"kind":"scalar","mu":0.0,"b":NaN,"n":10,"s_value":0.5}',
        '{"kind":"moment","d":2,"factors":[{"mean_norm":1.1,"sigma":0.1,'
        '"uniform_norm":NaN,"count":3}]}',
        '{"kind":"scalar","mu":0.0,"b":-Infinity,"n":10,"s_value":0.5}',
    ], ids=["scalar-nan", "moment-uniform-norm-nan", "scalar-minus-infinity"])
    def test_non_finite_constants_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        rc, out, _ = run_cli(capsys, "bound", "--config", str(path))
        assert rc == 1
        assert json.loads(out)["error"]["code"] == "invalid-input"
        assert "NaN" not in out and "Infinity" not in out

    @pytest.mark.parametrize("text, code", [
        ('{"kind":"scalar","mu":1e999,"b":1,"n":10,"s_value":0.5}', "invalid-input"),
        ('{"kind":"scalar","mu":0.0,"b":1e999,"n":10,"s_value":0.5}', "invalid-input"),
        ('{"kind":"scalar","mu":-1e999,"b":1,"n":10,"t_value":0.5}', "invalid-input"),
        ('{"kind":"scalar","mu":800,"b":1,"n":10,"s_value":0.5}', "invalid-parameter"),
        ('{"kind":"scalar","mu":800,"b":1,"n":10,"t_value":0.5}', "invalid-parameter"),
        ('{"kind":"scalar","mu":1' + "0" * 400 + ',"b":1,"n":10,"s_value":0.5}',
         "invalid-input"),
    ], ids=["mu-overflows", "b-overflows", "mu-overflows-negative", "growth-threshold-inf",
            "concentration-threshold-inf", "integer-past-float-range"])
    def test_overflowing_scalar_configs_rejected(self, capsys, tmp_path, text, code):
        path = tmp_path / "config.json"
        path.write_text(text)
        rc, out, _ = run_cli(capsys, "bound", "--config", str(path))
        assert rc == 1
        assert json.loads(out)["error"]["code"] == code
        assert "Infinity" not in out

    @pytest.mark.parametrize("text", [
        '{"kind":"perturbation","d":10,"xi":800,"v":0.1,"s":[1.0],"t":[0.5]}',
        '{"kind":"perturbation","d":10,"n":10,"b":1,"mu":800,"s":[1.0],"t":[0.5]}',
        '{"kind":"perturbation","d":10,"xi":1,"v":0.1,"s":[1e308]}',
        '{"kind":"inverse","d":10,"factors":[{"xi":0.3,"sigma":0.3}],"t":[1e308]}',
    ], ids=["xi-overflows", "scenario-mu-overflows", "growth-threshold-inf",
            "inverse-threshold-inf"])
    def test_infinite_perturbation_thresholds_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        rc, out, _ = run_cli(capsys, "bound", "--config", str(path))
        assert rc == 1
        assert json.loads(out)["error"] == {
            "code": "invalid-parameter", "message": "threshold t e^xi = inf is not finite"}
        assert "Infinity" not in out

    @pytest.mark.parametrize("n", [0, -5])
    def test_scenario_needs_positive_n(self, capsys, tmp_path, n):
        cfg = {"kind": "perturbation", "d": 10, "n": n, "b": 1}
        rc, payload, _ = run_json(capsys, "bound", "--config", write_config(tmp_path, cfg))
        assert rc == 1
        assert payload["error"] == {"code": "invalid-parameter", "message": "n must be positive"}

    @pytest.mark.parametrize("command,cfg", [
        ("bound", {"kind": "moment", "d": 2,
                   "factors": [{"mean_norm": 1.1, "sigma": 0.1, "count": -2},
                               {"mean_norm": 1.1, "sigma": 0.1, "count": 3}]}),
        ("bound", {"kind": "inverse", "d": 2,
                   "factors": [{"xi": 0.02, "sigma": 0.02, "count": 0},
                               {"xi": 0.02, "sigma": 0.02, "count": 3}]}),
        ("simulate", {"factors": [{"ensemble": {"kind": "rademacher-rank-one", "dim": 2},
                                   "count": -1},
                                  {"ensemble": {"kind": "rademacher-rank-one", "dim": 2}}]}),
    ], ids=["moment", "inverse", "spec"])
    def test_nonpositive_factor_count_rejected(self, capsys, tmp_path, command, cfg):
        rc, payload, _ = run_json(capsys, command, "--config", write_config(tmp_path, cfg))
        assert rc == 1
        assert payload["error"] == {"code": "invalid-input",
                                    "message": "factor count must be positive"}

    @pytest.mark.parametrize("kind", ["contraction", "lowrank"])
    def test_kind_whose_displays_the_stats_cannot_serve(self, capsys, tmp_path, kind):
        # no contraction stats, no projected rank: nothing of the kind to print
        path = write_config(tmp_path, {"kind": kind, "d": 2,
                                       "factors": [{"mean_norm": 1.0, "sigma": 0.1}]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 1
        assert payload["error"]["code"] == "invalid-input"
        assert kind in payload["error"]["message"]

    def test_unknown_bound_kind(self, capsys, tmp_path):
        path = write_config(tmp_path, {"kind": "mystery"})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 1
        assert "kind" in payload["error"]["message"]


class TestBoundCommand:
    def test_perturbation_preset_frozen_values(self, capsys):
        rc, payload, err = run_json(capsys, "bound", "--config", "perturbation")
        assert rc == 0
        assert err == ""  # no condition fails
        assert payload["scenario"] == {"d": 10, "n": 200, "b": 1.0, "mu": 0.0,
                                       "v": 0.005}
        by_kind = {}
        for r in payload["results"]:
            by_kind.setdefault(r["kind"], []).append(r)
        conc = by_kind["perturbation-expectation-concentration"][0]
        assert conc["value"] == pytest.approx(0.45506547302734116, rel=1e-13)
        tg = by_kind["perturbation-tail-growth"]
        assert tg[0]["value"] == pytest.approx(1.2851136069934235e-10, rel=1e-12)
        assert tg[0]["threshold"] == pytest.approx(1.65, rel=1e-15)
        tc = by_kind["perturbation-tail-concentration"]
        want_loose = [0.43156307262881175, 1.6861327847063342e-05,
                      3.928997548505088e-23]
        for row, loose in zip(tc, want_loose):
            assert row["extras"]["loose_prefactor_value"] == pytest.approx(loose, rel=1e-12)
            assert row["value"] == pytest.approx(loose * 10.0 / (10.0 + E), rel=1e-12)
        # every preset t stays below e, so all three rows are in force
        met = [all(c["satisfied"] for c in row["conditions"]) for row in tc]
        assert met == [True, True, True]

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "bound", "--config", "perturbation")
        _, second, _ = run_cli(capsys, "bound", "--config", "perturbation")
        assert first == second
        assert first.endswith("\n")

    def test_moment_kind_zero_variance(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "kind": "moment", "d": 1,
            "factors": [{"mean_norm": 1.2, "sigma": 0.0, "count": 3}]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        values = {r["kind"]: r["value"] for r in payload["results"]}
        assert values["growth-moment"] == pytest.approx(1.2 ** 3, rel=1e-15)
        assert values["concentration-moment"] == 0.0
        assert values["expectation-growth"] == pytest.approx(1.2 ** 3, rel=1e-15)
        assert values["expectation-concentration"] == 0.0

    def test_moment_kind_with_uniform_and_tails(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "kind": "moment", "d": 3,
            "factors": [{"mean_norm": 1.0, "sigma": 0.05, "uniform_norm": 1.05,
                         "sigma_uniform": 0.05, "count": 8}],
            "tail_growth_t": [1.5], "tail_concentration_t": [1.0]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        kinds = [r["kind"] for r in payload["results"]]
        assert kinds == ["growth-moment", "concentration-moment",
                         "expectation-growth", "expectation-concentration",
                         "uniform-growth", "uniform-concentration",
                         "expectation-concentration-uniform", "tail-growth",
                         "tail-concentration", "tail-concentration-uniform"]

    def test_moment_kind_gives_a_contraction_tail_per_threshold(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "kind": "moment", "d": 8, "tail_concentration_t": [8.0, 16.0],
            "factors": [{"mean_norm": 0.935, "sigma": 0.01, "uniform_norm": 1.0,
                         "sigma_uniform": 0.935, "contraction": 0.935, "count": 50}]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        tails = [r["threshold"] for r in payload["results"]
                 if r["kind"] == "contraction-tail-concentration"]
        assert tails == [8.0, 16.0]

    def test_scenario_lt_preset_frozen(self, capsys):
        rc, payload, _ = run_json(capsys, "bound", "--config", "lt-scenario")
        assert rc == 0
        expectation, probable = payload["results"]
        assert expectation["value"] == pytest.approx(0.55833242915286102, rel=1e-13)
        assert probable["value"] == pytest.approx(1.0325613199325351, rel=1e-13)
        assert probable["confidence"] == 0.99

    def test_inverse_kind(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "kind": "inverse", "d": 4,
            "factors": [{"xi": 0.02, "sigma": 0.02, "count": 10}]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        assert payload["inverse_stats"]["xi_bar"] == pytest.approx(
            0.21666666666666667, rel=1e-13)
        assert payload["inverse_stats"]["v_bar"] == pytest.approx(
            0.005444444444444444, rel=1e-13)
        growth = payload["results"][0]
        assert growth["value"] == pytest.approx(1.4042863150259291, rel=1e-12)

    def test_contraction_kind(self, capsys, tmp_path):
        c = math.sqrt(1.0 - 1.0 / 8.0)
        path = write_config(tmp_path, {
            "kind": "contraction", "d": 8, "t": [16.0],
            "factors": [{"mean_norm": c, "sigma": 0.0, "uniform_norm": 1.0,
                         "sigma_uniform": (1.0 - 1.0 / 8.0) / c,
                         "contraction": c, "count": 50}]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        growth, conc, tail = payload["results"]
        assert growth["value"] == pytest.approx(0.10040291434821372, rel=1e-12)
        assert conc["value"] == pytest.approx(0.6641028556787306, rel=1e-12)
        assert tail["value"] == pytest.approx(0.003436031092016610, rel=1e-12)
        assert tail["threshold"] == 16.0

    def test_lowrank_kind(self, capsys, tmp_path):
        p = 2.0 * (1.0 + math.log(100))
        z0 = {"rows": 100, "cols": 1, "data": [1.0] + [0.0] * 99}
        path = write_config(tmp_path, {
            "kind": "lowrank", "d": 100, "p": p, "z0": z0, "projected_rank": 1,
            "factors": [{"mean_norm": 1.0, "sigma": 0.1,
                         "sigma_uniform": 1.0, "count": 50}]})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        growth, conc = payload["results"]
        assert growth["value"] == pytest.approx(12.840254166877415, rel=1e-12)
        assert conc["value"] == pytest.approx(12.801254902157554, rel=1e-12)

    def test_scalar_kind(self, capsys, tmp_path):
        path = write_config(tmp_path, {"kind": "scalar", "mu": 0.0, "b": 1.0,
                                       "n": 200, "s_value": 0.65, "t_value": 0.5})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 0
        growth, conc = payload["results"]
        assert growth["value"] == pytest.approx(1.2851136069934235e-11, rel=1e-12)
        assert conc["value"] == pytest.approx(
            0.43156307262881175 / (10.0 + E), rel=1e-12)

    def test_exit_two_when_every_condition_fails(self, capsys, tmp_path):
        path = write_config(tmp_path, {"kind": "perturbation", "xi": 0.0,
                                       "v": 5.0, "d": 2})
        rc, payload, _ = run_json(capsys, "bound", "--config", path)
        assert rc == 2
        for r in payload["results"]:
            assert not all(c["satisfied"] for c in r["conditions"])

    def test_failed_conditions_go_to_stderr_with_their_sides(self, capsys, tmp_path):
        path = write_config(tmp_path, {"kind": "perturbation", "xi": 0.0, "v": 0.5, "d": 10,
                                       "t": [3.0]})
        rc, out, err = run_cli(capsys, "bound", "--config", path)
        assert rc == 0
        # stdout carries the flags alone
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "096c92b6470ef395bf69bdbd2ba098b3eb3031fc4a69f12b5b2c875db7fb833e")
        # v (1 + 2 log d) = 2.80259 > 1, and t = 3 > e
        assert f"{0.5 * (1.0 + 2.0 * math.log(10)):.6g}" == "2.80259"
        assert err.splitlines() == [
            "perturbation-expectation-concentration: small-variance not met, lhs 2.80259, rhs 1",
            "perturbation-tail-concentration: t-below-e not met, lhs 3, rhs 2.71828",
        ]

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--config", "lt-scenario",
                             "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        assert header[0] == "kind"
        assert len(rows) == 3
        value_col = header.index("value")
        cell = rows[1][value_col]
        assert float(cell) == pytest.approx(0.55833242915286102, rel=1e-13)
        assert cell == format_float(float(cell))


KACZMARZ_C = math.sqrt(1.0 - 1.0 / 8.0)
PLAIN_FACTOR = {"mean_norm": 1.1, "sigma": 0.2, "count": 5}
UNIFORM_FACTOR = {"mean_norm": 1.0, "sigma": 0.05, "uniform_norm": 1.05,
                  "sigma_uniform": 0.06, "count": 8}
CONTRACTION_FACTOR = {"mean_norm": 0.935, "sigma": 0.01, "uniform_norm": 1.0,
                      "sigma_uniform": 0.935, "contraction": 0.935, "count": 50}
KACZMARZ_FACTOR = {"mean_norm": KACZMARZ_C, "sigma": 0.0, "uniform_norm": 1.0,
                   "sigma_uniform": (1.0 - 1.0 / 8.0) / KACZMARZ_C,
                   "contraction": KACZMARZ_C, "count": 50}
LOWRANK_FACTOR = {"mean_norm": 1.0, "sigma": 0.1, "sigma_uniform": 1.0, "count": 20}
ONE_COLUMN = {"rows": 6, "cols": 1, "data": [1.0] + [0.0] * 5}

# one config per `bound` kind and branch, with the sha256 of its stdout
BOUND_OUTPUTS = {
    "moment": ({"kind": "moment", "d": 3, "factors": [PLAIN_FACTOR]},
               "8c1ec101aadf115f54a4f1ec7f071b62e10fe67a98fc97f2d3713c8ee609f4bb"),
    "moment-uniform": (
        {"kind": "moment", "d": 3, "p": 4.0, "q": 3.0, "factors": [UNIFORM_FACTOR]},
        "27130ea850664850af5892ec7edfd18f3e15f3bef2e7e334df867a0e4face5d8"),
    "moment-refine-tails": (
        {"kind": "moment", "d": 4, "refine": True, "tail_growth_t": [1.5, 3.0],
         "tail_concentration_t": [0.5, 4.0], "factors": [UNIFORM_FACTOR]},
        "181912ad7fa5c2218f0cada8ae2f7fffc0ecf722515bc4691347798e887823b4"),
    "moment-contraction": (
        {"kind": "moment", "d": 8, "tail_concentration_t": [8.0, 16.0],
         "factors": [CONTRACTION_FACTOR]},
        "8d3e267c66b120cde870bc522e293be9a323eab7c0c4c4e0a4537afbb3ba335d"),
    "moment-contraction-t": (
        {"kind": "moment", "d": 8, "tail_concentration_t": [16.0],
         "factors": [CONTRACTION_FACTOR]},
        "fcd77d9e69af1d8b1a5a40ad065c104453aa29c22eabb350a00b5307ea510cea"),
    "moment-projected": (
        {"kind": "moment", "d": 6, "p": 4.0, "z0": ONE_COLUMN, "projected_rank": 1,
         "factors": [LOWRANK_FACTOR]},
        "6bc23d3ba762e6723482d722a112afbcdf053e011d5663b60506c6ef45456f00"),
    "contraction": ({"kind": "contraction", "d": 8, "factors": [KACZMARZ_FACTOR]},
                    "664bccab20d9b230f8e50f1ecffce6953f668a50c5c0f3c540a8a4b6839c411e"),
    "contraction-t": (
        {"kind": "contraction", "d": 8, "t": [16.0], "factors": [KACZMARZ_FACTOR]},
        "1d09be43ddc85594fb6aeab09b1c3e532cf4c429c26a526c5b521871054f4765"),
    "contraction-2t": (
        {"kind": "contraction", "d": 8, "t": [15.0, 16.0], "factors": [KACZMARZ_FACTOR]},
        "51f99564fc2e3d122bd2fcad4f6f292b452ae87b0c3ec4b4bfaa9dec2a2fa04f"),
    "lowrank": (
        {"kind": "lowrank", "d": 6, "p": 4.0, "z0": ONE_COLUMN, "projected_rank": 1,
         "factors": [LOWRANK_FACTOR]},
        "4bc1bb1944fefe01d4cb9ad4de6f762f9fca1b54db76e49e5a599488f4e3aea1"),
    "perturbation-xi-v": (
        {"kind": "perturbation", "d": 10, "xi": 0.1, "v": 0.005, "s": [0.65],
         "t": [0.5, 3.0]},
        "810340c951621ac85ca1f214873116b712ac4231c38e2c5e12334075a2e8a453"),
    "perturbation-n-b-mu": (
        {"kind": "perturbation", "d": 10, "n": 200, "b": 1.0, "mu": 0.2,
         "s": [0.65, 1.0], "t": [0.5]},
        "aeb0e83e44daada999c2b575eea53e904950ce145dc63963dc080d184c2c36cd"),
    "inverse": (
        {"kind": "inverse", "d": 4, "t": [0.5, 1.0],
         "factors": [{"xi": 0.02, "sigma": 0.02, "count": 10}]},
        "5ce61ae6f1760073c3836f28a2ac39511ccce4eec5830f1a08c93fbbfddce8d3"),
    "scalar": (
        {"kind": "scalar", "mu": 0.1, "b": 1.0, "n": 200, "s_value": 0.65, "t_value": 0.5},
        "02f6027e2a34d94a4fef13bd2119df9a38166f33fa5404a5bf107d9403d1cbb8"),
    "scenario-lt": ({"kind": "scenario-lt", "T": 1.0, "L": 2.0, "n": 400, "d": 10},
                    "65cfc8436b61df0171298a774f329a0c458cadad9e646133b999a807f1cf0c4a"),
}


@pytest.mark.parametrize("name", list(BOUND_OUTPUTS))
def test_bound_output_bytes_are_pinned(capsys, tmp_path, name):
    config, digest = BOUND_OUTPUTS[name]
    rc, out, _ = run_cli(capsys, "bound", "--config", write_config(tmp_path, config))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimulateCommand:
    def test_enumeration_payload_frozen(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "spec": SCALAR_SPEC, "trials": 0, "p": 2.0, "q": 2.0,
            "thresholds_growth": [1.0, 1.2], "thresholds_deviation": [0.2]})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0
        assert payload["source"] == "enumeration"
        assert payload["outcomes"] == 4
        assert payload["growth_mean"] == pytest.approx(1.0, rel=1e-14)
        assert payload["deviation_mean"] == pytest.approx(0.105, rel=1e-14)
        assert payload["growth_moment"] == pytest.approx(1.01, rel=1e-14)
        assert payload["deviation_moment"] == pytest.approx(
            math.sqrt(0.0201), rel=1e-14)
        assert payload["mean"] == {"rows": 1, "cols": 1, "data": [1.0]}
        assert payload["tail_growth"][format_float(1.2)] == pytest.approx(0.25)
        assert payload["tail_deviation"][format_float(0.2)] == pytest.approx(0.25)
        assert format_float(0.2) == "0.20000000000000001"
        # the stdout bytes, key order included (it orders the CSV rows)
        for fmt, digest in (
                ("json", "d13ef9474236813a929482788ecaef2493556b17dcf87d7431dd137f438f46ed"),
                ("csv", "9e07503091d5a032698ac1f4452cad6f2ad35b75fe0ec4247fcdec02226a00b7")):
            rc, out, _ = run_cli(capsys, "simulate", "--config", path, "--format", fmt)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("config, excluded, digests", [
        pytest.param({
            "spec": {"factors": [{"count": 12, "ensemble": {"kind": "rademacher-rank-one",
                                                            "dim": 5}}],
                     "z0": {"rows": 5, "cols": 2,
                            "data": [0.5, -1.0, 0.0, 0.25, -0.75, 1.5, 0.125, 0.0, -2.0, 1.0]}},
            "trials": 64, "per_trial": True, "thresholds_growth": [1.5],
            "thresholds_deviation": [0.5]}, 0,
            ("abbd242279c919040c17c363a389883d6bf0bffc36495bb4c03a39be2ff9f1b8",
             "19cc9b252342bf8f0d1a781f8823a775b204c349f0e2ca164df6af324466d248"),
            id="rank-one-diagonal-steps"),
        # the flips I - e_j e_j^T are singular, so inverse mode excludes most trials
        pytest.param({
            "spec": {"factors": [{"count": 2, "ensemble": {"kind": "rademacher-rank-one",
                                                           "dim": 3}}],
                     "z0": {"rows": 3, "cols": 3,
                            "data": [1.0, 0.5, 0.0, 0.0, -1.0, 0.25, 0.0, 0.0, 2.0]},
                     "mode": "inverse"},
            "trials": 80, "thresholds_growth": [0.75, 1.5]}, 65,
            ("334c1e68443bb3567342fc9e71acb4874075cf9451f29a8f8efa2738c764b30d",
             "e885ee21f181e8d504ecddcafc1a77c0dff56a4d4643b163d3ad2ca1a1d1cb29"),
            id="inverse-rank-one"),
    ])
    def test_monte_carlo_payload_frozen(self, capsys, tmp_path, config, excluded, digests):
        path = write_config(tmp_path, config)
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0 and payload["excluded"] == excluded
        for fmt, digest in zip(("json", "csv"), digests):
            rc, out, _ = run_cli(capsys, "simulate", "--config", path, "--format", fmt)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("trials", [0, 40], ids=["enumeration", "monte-carlo"])
    @pytest.mark.parametrize("given, message", [
        ({"q": "nan"}, "q must satisfy 1 <= q < inf, got nan"),
        ({"q": "inf"}, "q must satisfy 1 <= q < inf, got inf"),
        ({"q": 0.5}, "q must satisfy 1 <= q < inf, got 0.5"),
        ({"thresholds_deviation": ["nan"]}, "a tail threshold is NaN"),
        ({"thresholds_growth": [1.0, "nan"]}, "a tail threshold is NaN"),
    ], ids=["q-nan", "q-inf", "q-below-one", "deviation-threshold-nan", "growth-threshold-nan"])
    def test_non_finite_q_and_nan_thresholds_rejected(self, capsys, tmp_path, trials, given,
                                                       message):
        # a string "nan" or "inf" passes the config reader's finite-number check
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": trials, **given})
        rc, payload, err = run_json(capsys, "simulate", "--config", path)
        assert rc == 1
        assert payload == {"error": {"code": "invalid-parameter", "message": message}}
        assert err == ""

    def test_enumeration_reports_spectral_radius(self, capsys, tmp_path):
        spec = {"factors": [{"count": 4, "ensemble": {
            "kind": "bounded-perturbation", "dim": 2, "radius": 0.3, "n_scale": 4.0}}]}
        path = write_config(tmp_path, {"spec": spec, "trials": 0})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0 and payload["outcomes"] == 16
        assert 0.0 < payload["spectral_radius_mean"] <= payload["growth_mean"]

    def test_monte_carlo_estimates(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 200,
                                       "thresholds_growth": [1.2]})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0
        assert payload["source"] == "monte-carlo"
        assert payload["trials"] == 200
        assert payload["seed"] == 1729
        assert set(payload["estimates"]) == {"spectral-norm-mean",
                                             "schatten-moment",
                                             "spectral-radius-mean",
                                             "deviation-norm-mean",
                                             "deviation-schatten-moment"}
        est = payload["estimates"]["spectral-norm-mean"]
        assert est["trials"] == 200
        assert est["ci_low"] <= est["mean"] <= est["ci_high"]
        (tail,) = payload["tails"]
        assert tail["quantity"] == "growth-tail"
        assert tail["threshold"] == 1.2

    def test_quantities_filter(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 50,
                                       "quantities": ["schatten-moment"]})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0
        assert list(payload["estimates"]) == ["schatten-moment"]

    def test_unknown_quantity(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 50,
                                       "quantities": ["norm-of-everything"]})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 1
        assert "unknown quantities" in payload["error"]["message"]

    def test_triangular_mode_rejected(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": dict(SCALAR_SPEC, mode="triangular"),
                                       "trials": 8})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 1
        assert payload["error"]["code"] == "invalid-parameter"
        assert "'triangular'" in payload["error"]["message"]

    def test_per_trial_norms(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 8,
                                       "per_trial": True})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0
        norms = payload["per_trial_spectral_norms"]
        assert len(norms) == 8
        assert all(0.8 <= x <= 1.22 for x in norms)

    @pytest.mark.parametrize("per_trial", [False, True])
    def test_per_trial_norms_reuse_the_product_svd(self, capsys, tmp_path, svals_shapes,
                                                   per_trial):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 8,
                                       "per_trial": per_trial})
        rc, payload, _ = run_json(capsys, "simulate", "--config", path)
        assert rc == 0
        assert ("per_trial_spectral_norms" in payload) == per_trial
        # the products and their deviations in one norm stack, reduced once
        assert [s for s in svals_shapes if len(s) == 3] == [(16, 1, 1)]

    def test_trials_and_seed_overrides(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 10})
        rc, base, _ = run_json(capsys, "simulate", "--config", path)
        rc2, more, _ = run_json(capsys, "simulate", "--config", path,
                                "--trials", "25")
        assert more["trials"] == 25
        rc3, other, _ = run_json(capsys, "simulate", "--config", path,
                                 "--seed", "7")
        assert other["seed"] == 7
        assert other["estimates"] != base["estimates"]
        rc4, same, _ = run_json(capsys, "simulate", "--config", path,
                                "--seed", "1729")
        assert same == base

    def test_determinism_bytes(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 64,
                                       "thresholds_growth": [1.1]})
        _, first, _ = run_cli(capsys, "simulate", "--config", path)
        _, second, _ = run_cli(capsys, "simulate", "--config", path)
        assert first == second

    def test_csv_format(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 16,
                                       "thresholds_growth": [1.1],
                                       "per_trial": True})
        rc, out, _ = run_cli(capsys, "simulate", "--config", path,
                             "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        records = {r["record"] for r in rows}
        assert records == {"estimate", "tail", "meta", "per-trial"}
        assert sum(1 for r in rows if r["record"] == "per-trial") == 16


class TestVerifyCommand:
    def test_suite_passes_with_summary(self, capsys):
        rc, payload, err = run_json(capsys, "verify")
        assert rc == 0
        assert payload["ok"] is True
        assert payload["seed"] == 1729
        assert len(payload["reports"]) == 15
        controls = [r for r in payload["reports"] if r["negative_control"]]
        assert len(controls) == 1
        assert controls[0]["name"] == "subquadratic-constant-0.5"
        assert controls[0]["violations"] >= 1
        # stderr summary: one line per report, all ok
        lines = [ln for ln in err.strip().splitlines() if ln]
        assert len(lines) == 15
        assert all(ln.startswith("ok") for ln in lines)
        assert any("negative control" in ln for ln in lines)

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15
        assert {"name", "passed", "negative_control"} <= set(rows[0])
        fired = [r for r in rows if r["negative_control"] == "true"]
        assert len(fired) == 1 and fired[0]["passed"] == "false"


class TestCompareCommand:
    def test_two_point_scalar_preset(self, capsys):
        rc, payload, _ = run_json(capsys, "compare", "--config",
                                  "two-point-scalar")
        assert rc == 0
        assert payload["meta"]["source"] == "enumeration"
        assert payload["meta"]["outcomes"] == 4
        rows = {r["quantity"]: r for r in payload["rows"]}
        row = rows["concentration-mean"]
        assert row["empirical"] == pytest.approx(0.105, rel=1e-14)
        assert row["bound"] == pytest.approx(0.14213141815501529, rel=1e-14)
        assert row["ratio"] == pytest.approx(1.3536325538572885, rel=1e-12)
        assert rows["growth-moment"]["empirical_kind"] == "exact"

    @pytest.mark.parametrize("bounds", [None, ["growth-moment", "expectation-concentration"]],
                             ids=["with-radius", "without-radius"])
    def test_bytes_do_not_depend_on_taking_the_radius(self, capsys, tmp_path, monkeypatch,
                                                      bounds):
        cfg = {"spec": {"factors": [{"count": 4, "ensemble": {
            "kind": "bounded-perturbation", "dim": 2, "radius": 0.3, "n_scale": 4.0}}]},
            "trials": 0, "thresholds_growth": [1.1]}
        if bounds is not None:
            cfg["bounds"] = bounds
        path = write_config(tmp_path, cfg)
        rc, text, _ = run_cli(capsys, "compare", "--config", path)
        enumerate_product = matprod.verify.enumerate_product

        def always_radius(*args, spectral_radius=True):
            return enumerate_product(*args)

        monkeypatch.setattr(matprod.verify, "enumerate_product", always_radius)
        assert run_cli(capsys, "compare", "--config", path)[:2] == (rc, text)
        assert ("spectral-radius-expectation" in text) == (bounds is None)

    def test_kaczmarz_preset_with_trials(self, capsys):
        rc, payload, _ = run_json(capsys, "compare", "--config", "kaczmarz",
                                  "--trials", "500")
        assert rc == 0
        assert payload["meta"]["source"] == "monte-carlo"
        assert payload["meta"]["trials"] == 500
        rows = {r["quantity"]: r for r in payload["rows"]}
        growth = rows["contraction-expectation-growth"]
        assert growth["bound"] == pytest.approx(0.10040291434821372, rel=1e-12)
        assert growth["empirical_kind"] == "estimate"
        assert growth["limit"] <= growth["bound"]
        tail = rows["contraction-tail@16"]
        assert tail["bound"] == pytest.approx(0.003436031092016610, rel=1e-12)
        assert tail["threshold"] == 16.0

    def test_all_rows_skipped_exits_two(self, capsys, tmp_path):
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 0,
                                       "bounds": [],
                                       "thresholds_growth": [1.005]})
        rc, payload, _ = run_json(capsys, "compare", "--config", path)
        assert rc == 2
        (row,) = payload["rows"]
        assert row["skipped"] is True
        assert row["note"] == "condition violated"

    def test_infeasible_without_fallback(self, capsys, tmp_path):
        big = dict(SCALAR_SPEC, factors=[dict(SCALAR_SPEC["factors"][0], count=21)])
        path = write_config(tmp_path, {"spec": big, "trials": 0,
                                       "mc_fallback_trials": 0,
                                       "bounds": ["expectation-growth"]})
        rc, payload, _ = run_json(capsys, "compare", "--config", path)
        assert rc == 1
        assert payload["error"]["code"] == "enumeration-infeasible"

    @pytest.mark.parametrize("trials", [0, 10], ids=["enumeration", "monte-carlo"])
    def test_singular_inverse_start_is_invalid_input(self, capsys, tmp_path, trials):
        spec = dict(SCALAR_SPEC, mode="inverse",
                    z0={"rows": 1, "cols": 1, "data": [0.0]})
        path = write_config(tmp_path, {"spec": spec, "trials": trials})
        rc, payload, _ = run_json(capsys, "compare", "--config", path)
        assert rc == 1
        assert payload["error"] == {"code": "invalid-input",
                                    "message": "the start z0 is singular, which has no inverse"}

    def test_bounds_must_be_a_list(self, capsys, tmp_path):
        # a string would be read as a list of one-letter display names
        path = write_config(tmp_path, {"spec": SCALAR_SPEC, "bounds": "growth-moment"})
        rc, payload, _ = run_json(capsys, "compare", "--config", path)
        assert rc == 1
        assert payload["error"] == {"code": "invalid-input",
                                    "message": "'bounds' must be a list of display names"}

    def test_default_fallback_downgrades(self, capsys, tmp_path):
        big = dict(SCALAR_SPEC, factors=[dict(SCALAR_SPEC["factors"][0], count=21)])
        path = write_config(tmp_path, {"spec": big, "trials": 0,
                                       "bounds": ["expectation-growth"]})
        rc, payload, _ = run_json(capsys, "compare", "--config", path)
        assert rc == 0
        assert payload["meta"]["notice"] == (
            "enumeration infeasible; downgraded to Monte Carlo")
        assert payload["meta"]["trials"] == 4096

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--config", "two-point-scalar",
                             "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert rows[0]["quantity"] == "growth-moment"

    def test_tail_row_without_truth_keeps_its_failed_condition(self, capsys, tmp_path):
        # inverse Monte Carlo has no deviation tails; t = 5 fails t-below-e
        spec = {"factors": [{"count": 4, "ensemble": {
            "kind": "bounded-perturbation", "dim": 3, "radius": 0.05, "n_scale": 1.0}}],
            "mode": "inverse", "z0": "identity"}
        path = write_config(tmp_path, {"spec": spec, "trials": 64,
                                       "thresholds_deviation": [0.5, 5.0]})
        rc, payload, _ = run_json(capsys, "compare", "--config", path)
        assert rc == 0
        rows = {r["quantity"]: r for r in payload["rows"]}
        held, failed = rows["tail-concentration@0.5"], rows["tail-concentration@5"]
        assert held["conditions_met"] is True
        assert held["note"] == "no tail reference available"
        assert failed["conditions_met"] is False and failed["skipped"] is True
        assert failed["note"] == "condition violated"
        assert math.isinf(failed["bound"]) and "empirical" not in failed


def _bounded(dim, radius, n_scale):
    return {"kind": "bounded-perturbation", "dim": dim, "radius": radius, "n_scale": n_scale}


# one config per `compare` row shape, with the sha256 of its stdout in JSON and in CSV;
# an unmet-need row evaluated no bound, so its bound and kind are null
COMPARE_OUTPUTS = {
    "unmet-contraction": (
        {"spec": {"factors": [{"count": 2, "ensemble": {"kind": "rademacher-rank-one",
                                                        "dim": 3}}]},
         "trials": 0, "bounds": ["growth-moment", "contraction-expectation-growth"]},
        "e98af0e614b3480f9a9af761c89b451039dc511d63f068cd81bcd450f40e58b4",
        "a1d8fb9ae6578284164cfe3cfa0da1e4da69a6c7d43da547c8852ef663a25701"),
    # every row skipped, so the exit code is 2
    "unmet-perturbation": (
        {"spec": {"factors": [{"count": 2, "ensemble": {"kind": "rademacher-rank-one",
                                                        "dim": 3}}],
                  "mode": "inverse",
                  "z0": {"rows": 3, "cols": 3,
                         "data": [1.0, 0.5, 0.0, 0.0, -1.0, 0.25, 0.0, 0.0, 2.0]}},
         "trials": 80},
        "fe1d2b2c872312ce56cbae3d0eba2cf7a7a421bebc1e90d8aa8d2f90cba017e9",
        "080b0af5ba889292c6fe3e965e0a1756af1ebc30e5f59c86dabd828405c84b04"),
    # v (1 + 2 log d) > 1 fails expectation-concentration
    "failed-mean-condition": (
        {"spec": {"factors": [{"count": 3, "ensemble": _bounded(3, 0.9, 1.0)}]}, "trials": 0},
        "f3c05ec4cff26102971cec3da1b0907bd1f008661cf0d951aced99bd7fc2d6ec",
        "64774df2714d0edc690d5b7f0ebdd2563ddacae04ed5b80066739f2ea9ce936e"),
    # no deviation mean and no deviation tail in inverse Monte Carlo
    "inverse-monte-carlo-without-truth": (
        {"spec": {"factors": [{"count": 4, "ensemble": _bounded(3, 0.05, 1.0)}],
                  "mode": "inverse"},
         "trials": 64, "thresholds_deviation": [0.5]},
        "dbbefb2b5433ca9381fb963b6c70e6707459fa99dc38e43d5db5e34d42ab2c1e",
        "40265d9fd646355be07c841dab529ec251663fc672a06660695852b299c4d89a"),
    # t = 1.005 lies below e^{2v}: the failed tail row keeps its truth
    "failed-tail-condition": (
        {"spec": SCALAR_SPEC, "trials": 0, "thresholds_growth": [1.005, 1.2],
         "thresholds_deviation": [0.2]},
        "e2bdb975c180a04be36012514258050edd4422a66bcda192e2c3d6c09057d811",
        "58b49bd559dc56995626c2723546991951f3d24d62baf3b072682a0ecdf8472b"),
    "lowrank-lower-estimate": (
        {"spec": {"factors": [{"count": 3, "ensemble": {"kind": "projector-contraction",
                                                        "dim": 4}}],
                  "z0": {"rows": 4, "cols": 1, "data": [1.0, 0.0, 0.0, 0.0]}},
         "trials": 32, "p": 4.0,
         "bounds": ["lowrank-growth", "lowrank-concentration", "growth-moment"]},
        "69f424111c36608041537257e16813640170de4443f92354c509b4c358ee2333",
        "47b6802e570da6d508964dd3863b5919c8fe5cf857f2565c88ee5ecd12590a24"),
}


def _refuse_nan(token):
    if token == "NaN":
        raise ValueError("compare printed a NaN")
    return float(token)


@pytest.mark.parametrize("name", list(COMPARE_OUTPUTS))
def test_compare_row_shapes_are_pinned(capsys, tmp_path, name):
    config, *digests = COMPARE_OUTPUTS[name]
    path = write_config(tmp_path, config)
    for fmt, digest in zip(("json", "csv"), digests):
        rc, out, _ = run_cli(capsys, "compare", "--config", path, "--format", fmt)
        assert rc == (2 if name == "unmet-perturbation" else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if fmt == "json":  # Infinity is the one non-finite token a row may print
            json.loads(out, parse_constant=_refuse_nan)


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("mode", ["independent", "inverse"])
def test_monte_carlo_never_collects_the_trial_matrices(capsys, tmp_path, monkeypatch,
                                                       command, mode):
    def fail(*args, **kwargs):
        raise AssertionError("the trial matrices were collected")

    monkeypatch.setattr(matprod.simulate, "simulate_product", fail)
    path = write_config(tmp_path, {"spec": dict(SCALAR_SPEC, mode=mode), "trials": 40})
    rc, payload, _ = run_json(capsys, command, "--config", path)
    assert rc in (0, 2)
    assert payload.get("meta", payload)["source"] == "monte-carlo"


def test_inverse_compare_takes_no_spectral_radius(capsys, tmp_path, monkeypatch):
    path = write_config(tmp_path, {"spec": dict(SCALAR_SPEC, mode="inverse"), "trials": 40})
    _, simulated, _ = run_json(capsys, "simulate", "--config", path)
    assert simulated["estimates"]["spectral-radius-mean"]["trials"] == 40

    def fail(stack):
        raise AssertionError("a spectral radius was taken")

    monkeypatch.setattr(matprod.simulate, "spectral_radii", fail)
    rc, payload, _ = run_json(capsys, "compare", "--config", path)
    assert rc in (0, 2)
    assert payload["meta"]["source"] == "monte-carlo" and payload["rows"]


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_overflowed_product_is_named(capsys, tmp_path, command):
    # 400 factors near 10 I reach 10**400, past float64; the products warn
    # nothing (a warning is an error here), and the error names the overflow
    mean = {"rows": 2, "cols": 2, "data": [10.0, 0.0, 0.0, 10.0]}
    spec = {"factors": [{"count": 400, "ensemble": {
        "kind": "bounded-perturbation", "dim": 2, "radius": 0.5, "n_scale": 1.0, "mean": mean}}]}
    path = write_config(tmp_path, {"spec": spec, "trials": 20})
    rc, payload, err = run_json(capsys, command, "--config", path)
    assert "RuntimeWarning" not in err
    assert rc == 1
    assert payload["error"]["code"] == "invalid-input"
    assert "overflowed float64" in payload["error"]["message"]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_extreme_start_norms_print_finite_estimates(capsys, tmp_path, command, scale):
    # three factors 1 +/- 0.5 from z0 = [[scale]]: the norms' squares pass
    # float64 at 1e200 and fall below it at 1e-200; nothing warns (a warning
    # is an error here), no NaN or Infinity is printed, and every interval
    # keeps its spread
    spec = {"factors": [{"count": 3, "ensemble": {
                "kind": "bounded-perturbation", "dim": 1, "radius": 0.5, "n_scale": 1.0}}],
            "z0": {"rows": 1, "cols": 1, "data": [scale]}}
    path = write_config(tmp_path, {"spec": spec, "trials": 20})
    rc, out, err = run_cli(capsys, command, "--config", path)
    assert (rc, err) == (0, "")
    assert "NaN" not in out and "Infinity" not in out
    payload = json.loads(out)
    if command == "simulate":
        for e in payload["estimates"].values():  # a moment's lower limit is clamped at 0
            assert e["std_error"] > 0.0 and 0.0 <= e["ci_low"] < e["mean"] < e["ci_high"]
    else:
        assert all(row["limit"] > row["empirical"] > 0.0 for row in payload["rows"])


# ---------------------------------------------------------------------------
# the config format: one field table per config object

ROOT = Path(__file__).resolve().parents[1]


def load_preset(name):
    return json.loads((Path(cli.__file__).parent / "presets" / f"{name}.json").read_text())


def mc_dense_inverse_config():
    """The inverse compare config of job 0 of the mc-dense benchmark workload."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs.make_job("mc-dense", jobs.DEFAULT_SEED, 0)["calls"][1]["config"]


def renamed(obj, old, new):
    """A copy of ``obj`` with key ``old`` renamed ``new`` at every depth."""
    if isinstance(obj, dict):
        return {(new if k == old else k): renamed(v, old, new) for k, v in obj.items()}
    if isinstance(obj, list):
        return [renamed(v, old, new) for v in obj]
    return obj


def refusal(capsys, tmp_path, command, cfg):
    rc, payload, _ = run_json(capsys, command, "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert payload["error"]["code"] == "invalid-input"
    return payload["error"]["message"]


def scalar_spec_with(**ensemble):
    entry = SCALAR_SPEC["factors"][0]
    return dict(SCALAR_SPEC, factors=[dict(entry, ensemble=dict(entry["ensemble"], **ensemble))])


ONE_ENSEMBLE = {"rademacher-rank-one": {"kind": "rademacher-rank-one", "dim": 3},
                "projector-contraction": {"kind": "projector-contraction", "dim": 3}}

# (command, config, the misspelled key): one case per config object
MISSPELLED = {
    "bound-moment": ("bound", {"kind": "moment", "d": 3, "factors": [PLAIN_FACTOR],
                               "tail_growht_t": [1.5]}, "tail_growht_t"),
    # mu belongs to the scenario form alone, and xi to the xi-v form
    "bound-perturbation": ("bound", {"kind": "perturbation", "d": 10, "xi": 0.1, "v": 0.005,
                                     "mu": 0.2}, "mu"),
    "bound-perturbation-scenario": ("bound", {"kind": "perturbation", "d": 10, "n": 200,
                                              "b": 1.0, "xi": 0.1}, "xi"),
    "bound-scenario-lt": ("bound", {"kind": "scenario-lt", "T": 1.0, "L": 2.0, "n": 400,
                                    "d": 10, "delat": 0.05}, "delat"),
    "bound-inverse": ("bound", {"kind": "inverse", "d": 4, "s": [1.0],
                                "factors": [{"xi": 0.02, "sigma": 0.02}]}, "s"),
    "bound-contraction": ("bound", {"kind": "contraction", "d": 8, "factors": [KACZMARZ_FACTOR],
                                    "tail_concentration_t": [16.0]}, "tail_concentration_t"),
    "bound-lowrank": ("bound", {"kind": "lowrank", "d": 6, "z0": ONE_COLUMN,
                                "projected_rnak": 1, "factors": [LOWRANK_FACTOR]},
                      "projected_rnak"),
    "bound-scalar": ("bound", {"kind": "scalar", "mu": 0.1, "b": 1.0, "n": 200, "s": 0.65}, "s"),
    "factor-statistics": ("bound", {"kind": "moment", "d": 3,
                                    "factors": [dict(PLAIN_FACTOR, sigma_unifrom=0.3)]},
                          "sigma_unifrom"),
    "factor-statistics-wrapper": ("bound", {"kind": "moment", "d": 3, "factors": [
        {"stats": {"mean_norm": 1.1, "sigma": 0.2}, "count": 5, "cuont": 3}]}, "stats"),
    "inverse-factor": ("bound", {"kind": "inverse", "d": 4,
                                 "factors": [{"xi": 0.02, "sigma": 0.02, "sigam": 0.5}]},
                       "sigam"),
    "simulate": ("simulate", {"spec": SCALAR_SPEC, "trails": 64}, "trails"),
    "compare": ("compare", {"spec": SCALAR_SPEC, "threshold_growth": [1.1]},
                "threshold_growth"),
    "verify": ("verify", {"seed": 7, "sede": 8}, "sede"),
    "product-spec": ("compare", {"spec": dict(SCALAR_SPEC, zo="identity")}, "zo"),
    "spec-factor": ("compare", {"spec": renamed(SCALAR_SPEC, "count", "cout")}, "cout"),
    "bounded-perturbation": ("compare", {"spec": scalar_spec_with(Mean=None)}, "Mean"),
    "rademacher-rank-one": ("compare", {"spec": {"factors": [{"ensemble": dict(
        ONE_ENSEMBLE["rademacher-rank-one"], dimension=3)}]}}, "dimension"),
    "projector-contraction": ("compare", {"spec": {"factors": [{"ensemble": dict(
        ONE_ENSEMBLE["projector-contraction"], projector="coordinate")}]}}, "projector"),
    # a config without 'spec' is its own spec: a misspelled 'spec' was read
    # as a spec with no factors
    "flat-sepc": ("simulate", {"sepc": SCALAR_SPEC, "trials": 0}, "sepc"),
    "flat-trails": ("compare", dict(SCALAR_SPEC, trails=0), "trails"),
}


@pytest.mark.parametrize("name", list(MISSPELLED))
def test_a_misspelled_key_is_refused_in_every_config_object(capsys, tmp_path, name):
    command, cfg, key = MISSPELLED[name]
    message = refusal(capsys, tmp_path, command, cfg)
    assert "unknown" in message and repr(key) in message


def test_a_matrix_object_with_another_key_is_refused(capsys, tmp_path):
    # once, this ran from the identity start without a word
    z0 = {"rows": 2, "cols": 2, "data": [1, 0, 0, 1], "transpose": True, "dtpye": "f4"}
    spec = {"factors": [{"ensemble": dict(ONE_ENSEMBLE["rademacher-rank-one"], dim=2)}],
            "z0": z0}
    for command in ("simulate", "compare"):
        message = refusal(capsys, tmp_path, command, {"spec": spec, "trials": 0})
        assert message == ("matrix JSON takes the fields rows, cols, data, got keys "
                           "'rows', 'cols', 'data', 'transpose', 'dtpye'")


@pytest.mark.parametrize("quantities", ["schatten-moment", {"schatten-moment": True},
                                        ["schatten-moment", 2]],
                         ids=["string", "object", "non-string-entry"])
def test_quantities_must_be_a_list_of_names(capsys, tmp_path, quantities):
    # a string was read as its letters: "unknown quantities: ['-', 'a', ...]"
    message = refusal(capsys, tmp_path, "simulate",
                      {"spec": SCALAR_SPEC, "trials": 8, "quantities": quantities})
    assert message == "'quantities' must be a list of quantity names"


def test_misspelled_preset_fields_are_refused(capsys, tmp_path):
    # once, these ran the preset with its 5 rows and no tail row
    cfg = dict(load_preset("two-point-scalar"), threshold_growth=[1.1], pp=4.0)
    message = refusal(capsys, tmp_path, "compare", cfg)
    assert "'threshold_growth', 'pp'" in message and "thresholds_growth" in message


@pytest.mark.parametrize("renames", [
    [("count", "cout")], [("mean", "Mean")], [("z0", "zo")], [("trials", "trails")],
    [("count", "cout"), ("mean", "Mean"), ("z0", "zo"), ("trials", "trails")],
], ids=["cout", "Mean", "zo", "trails", "all-four"])
def test_misspelled_benchmark_config_is_refused(capsys, tmp_path, renames):
    # all four once ran one factor with zero drift, enumerated instead of sampled
    cfg = mc_dense_inverse_config()
    assert run_cli(capsys, "compare", "--config", write_config(tmp_path, cfg))[0] == 0
    for old, new in renames:
        cfg = renamed(cfg, old, new)
    message = refusal(capsys, tmp_path, "compare", cfg)
    assert repr(renames[-1][1]) in message  # the outermost one is named first


@pytest.mark.parametrize("command, cfg, field", [
    ("bound", dict(BOUND_OUTPUTS["moment-refine-tails"][0], refine="false"), "refine"),
    ("simulate", {"spec": SCALAR_SPEC, "trials": 8, "per_trial": "false"}, "per_trial"),
    ("simulate", {"spec": dict(SCALAR_SPEC, factors=[dict(SCALAR_SPEC["factors"][0],
                                                          count=2.9)]), "trials": 0}, "count"),
    ("simulate", {"spec": {"factors": [{"ensemble": dict(ONE_ENSEMBLE["rademacher-rank-one"],
                                                         dim=3.9)}]}, "trials": 0}, "dim"),
    ("simulate", {"spec": SCALAR_SPEC, "trials": True}, "trials"),
    ("bound", {"kind": "moment", "d": 2.5, "factors": [PLAIN_FACTOR]}, "d"),
    ("bound", {"kind": "scalar", "mu": 0.1, "b": 1.0, "n": 200.5, "s_value": 0.65}, "n"),
    ("bound", {"kind": "inverse", "d": 4,
               "factors": [{"xi": 0.02, "sigma": 0.02, "count": True}]}, "count"),
    ("bound", {"kind": "moment", "d": 6, "p": 4.0, "z0": ONE_COLUMN, "projected_rank": 1.5,
               "factors": [LOWRANK_FACTOR]}, "projected_rank"),
    ("compare", {"spec": SCALAR_SPEC, "seed": True}, "seed"),
    ("compare", {"spec": SCALAR_SPEC, "mc_fallback_trials": 10.5}, "mc_fallback_trials"),
], ids=["refine-string", "per-trial-string", "count-fraction", "dim-fraction", "trials-true",
        "d-fraction", "n-fraction", "count-true", "projected-rank-fraction", "seed-true",
        "fallback-trials-fraction"])
def test_typed_fields_refuse_the_wrong_type(capsys, tmp_path, command, cfg, field):
    # int() read true as 1 and cut 2.9 to 2; bool() read "false" as true
    message = refusal(capsys, tmp_path, command, cfg)
    assert repr(field) in message


@pytest.mark.parametrize("command, cfg, field", [
    ("bound", {"kind": "scalar", "mu": 0.1, "b": 1.0, "n": 200, "s_value": 0.65}, "t_value"),
    ("bound", BOUND_OUTPUTS["moment"][0], "projected_rank"),
    ("bound", BOUND_OUTPUTS["moment-projected"][0], "d"),
    ("simulate", {"spec": SCALAR_SPEC, "trials": 8}, "quantities"),
    ("compare", {"spec": SCALAR_SPEC}, "bounds"),
    ("compare", {"spec": scalar_spec_with()}, "mean"),
], ids=["t-value", "projected-rank", "d", "quantities", "bounds", "mean"])
def test_null_reads_as_the_default_where_that_is_null(capsys, tmp_path, command, cfg, field):
    path = write_config(tmp_path, cfg)
    rc, out, _ = run_cli(capsys, command, "--config", path)
    assert rc == 0
    if field == "mean":
        cfg = {"spec": scalar_spec_with(mean=None)}
    else:
        cfg = dict(cfg, **{field: None})
    assert run_cli(capsys, command, "--config", write_config(tmp_path, cfg, "null.json")) == (
        rc, out, "")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_a_config_without_spec_is_its_own_spec(capsys, tmp_path, command):
    nested = run_cli(capsys, command, "--config",
                     write_config(tmp_path, {"spec": SCALAR_SPEC, "trials": 0}))
    flat = run_cli(capsys, command, "--config",
                   write_config(tmp_path, dict(SCALAR_SPEC, trials=0), "flat.json"))
    assert nested[0] == 0 and flat == nested


def config_tables():
    """Each config object named as in README's config reference, with its field table."""
    tables = {f"bound {kind}": table for kind, table in cli._BOUND.items()}
    tables["bound perturbation, with n or b"] = cli._SCENARIO
    tables.update({"simulate": cli._SIMULATE, "compare": cli._COMPARE, "verify": cli._ROOT,
                   "product spec": cli._SPEC})
    for name, table in (("spec factor", cli._SPEC_FACTOR),
                        ("factor statistics", cli._FACTOR_STATS),
                        ("inverse factor", cli._INVERSE_FACTOR)):
        tables[name] = dict(table, count=cli._COUNT)
    tables.update({f"{kind} ensemble": table for kind, table in cli._ENSEMBLES.items()})
    return tables


def test_readme_config_reference_is_the_field_tables():
    section = (ROOT / "README.md").read_text().split("### Config reference\n")[1]
    rows = [line for line in section.split("\n### ")[0].splitlines()
            if line.startswith("| ") and not line.startswith("| object ")]
    documented = {}
    for row in rows:
        name, fields = row.strip("| ").split(" | ")
        documented[name.replace("`", "")] = fields
    tables = config_tables()
    assert set(documented) == set(tables)
    for name, table in tables.items():
        want = ", ".join(f"`{field}`" if default is cli._REQUIRED
                         else f"`{field}` = `{json.dumps(default)}`"
                         for field, (_, default) in table.items())
        assert documented[name] == want, name


def test_import_matprod_leaves_the_cli_unloaded():
    # the config format lives in matprod.cli alone
    out = run_fresh_python("import sys, matprod; print('matprod.cli' in sys.modules)")
    assert out == ["False"]


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        rc, out, _ = run_cli(capsys, "bound", "--config", "lt-scenario",
                             "--out", str(target))
        assert rc == 0
        assert out == ""
        direct_rc, direct, _ = run_cli(capsys, "bound", "--config", "lt-scenario")
        assert target.read_text() == direct

    def test_unwritable_out_reports_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "result.json"
        rc, payload, _ = run_json(capsys, "bound", "--config", "lt-scenario",
                                  "--out", str(target))
        assert rc == 1
        assert payload["error"]["code"] == "io"

    def test_unwritable_out_with_usage_error_still_reports(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "result.json"
        rc, payload, _ = run_json(capsys, "bound", "--config", "no-such-preset",
                                  "--out", str(target))
        assert rc == 1
        assert payload["error"]["code"] == "invalid-input"


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def child_env(**overrides):
    """The environment of a child process that imports the matprod under test."""
    package_root = str(Path(matprod.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])), **overrides)


def run_fresh_python(code):
    """Run ``code`` in a new interpreter; return its stdout lines."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_leaves_scipy_stats_and_linalg_unloaded():
    # any scipy module is about half of a cold start, and every CLI run pays it
    out = run_fresh_python(f"import sys, matprod, matprod.cli; {LOADED_SCIPY}")
    assert out == ["[]"]


def test_import_loads_numpy_random():
    # streams opens generators and hashes seeds with numpy.random; deferring
    # its import to the first call made certify-exact's first job 21% slower
    out = run_fresh_python("import sys, matprod; print('numpy.random' in sys.modules)")
    assert out == ["True"]


def test_first_call_loads_no_argparse_locale_or_scipy():
    # every matprod process pays its first call's imports; argparse (with
    # gettext) and its first parser (with locale) were about 8 ms of it
    code = ("import sys; from matprod.cli import main; "
            "main(['bound', '--config', 'lt-scenario']); "
            "print(sorted(m for m in ('argparse', 'gettext', 'locale', 'scipy') "
            "if m in sys.modules))")
    assert run_fresh_python(code)[-1] == "[]"


def test_edge_tail_rows_and_bounds_leave_scipy_unloaded(tmp_path):
    # 0-hit tail limits have a closed form, and the bounds need no scipy
    config = write_config(tmp_path, {
        "task": "compare", "spec": SCALAR_SPEC, "trials": 40,
        "thresholds_growth": [10.0], "thresholds_deviation": [5.0]})
    code = (f"import sys; from matprod.cli import main; "
            f"main(['compare', '--config', {config!r}]); "
            f"main(['bound', '--config', 'perturbation']); {LOADED_SCIPY}")
    compared, bounded, loaded = run_fresh_python(code)
    tails = [r for r in json.loads(compared)["rows"] if r["quantity"].startswith("tail-")]
    assert len(tails) == 2 and all(r["empirical"] == 0.0 for r in tails)
    assert json.loads(bounded)["task"] == "bound"
    assert loaded == "[]"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def declared_console_script(name):
    """The ``module:function`` that pyproject.toml's [project.scripts] gives ``name``."""
    return read_pyproject()["project"]["scripts"][name]


def test_declared_dependencies_are_the_imported_ones():
    # an unused or an undeclared runtime dependency fails here
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower()
                for dep in read_pyproject()["project"]["dependencies"]}
    imported = set()
    for path in Path(matprod.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"matprod"} == declared


def write_console_script(bin_dir, name, target):
    """Write the launcher an installer generates for ``target`` = ``module:attr``."""
    module, _, attr = target.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    script.chmod(0o755)


def check_lt_scenario_by_name(command, env=None):
    """Run ``command bound --config lt-scenario`` as a separate process."""
    proc = subprocess.run(
        [command, "bound", "--config", "lt-scenario"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["task"] == "bound"
    assert payload["results"][0]["value"] == pytest.approx(
        0.55833242915286102, rel=1e-13)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # The launcher an install would put on PATH, built from the declared
        # entry point, so a renamed target or a dropped exit code fails here
        # without the package being installed.
        bin_dir = tmp_path / "bin"
        write_console_script(bin_dir, "matprod", declared_console_script("matprod"))
        env = child_env(PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
        check_lt_scenario_by_name("matprod", env)

    @pytest.mark.skipif(shutil.which("matprod") is None,
                        reason="no `matprod` executable on PATH; "
                               "install with `pip install -e . --no-build-isolation`")
    def test_console_script_on_path(self):
        check_lt_scenario_by_name(shutil.which("matprod"))
