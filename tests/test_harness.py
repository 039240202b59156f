import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from fractions import Fraction

import pytest

from amenshift import suites
from amenshift.cli import DEFAULT_SCALES, main
from amenshift.configs import block_alternating, champernowne_binary
from amenshift.errors import SpecError
from amenshift.groups import make_chain
from amenshift.harness import (
    KINDS,
    VERDICTS,
    ExperimentReport,
    ExperimentSpec,
    emit,
    report_from_json,
    run,
    spec_from_json,
)
from amenshift.metrics import dstar_distance

# sha256 of the JSON report of `amenshift verify --suite all --seed 7`, the
# byte-identity anchor also recorded in bench/references.json: a change that
# keeps every report keeps this digest.
VERIFY_ALL_SEED7_SHA256 = "472456c780366e86cbe7c28d0b55638151645757c6af1bf1617f30ffd96ee880"


def make_spec(**overrides):
    doc = {
        "kind": "path",
        "chain": {"rank": 1, "scales": [2, 4, 8, 16, 32, 64]},
        "params": {"depth": 6, "t_grid": ["0", "1/4", "1/2", "3/4", "1"]},
        "seed": 7,
    }
    doc.update(overrides)
    return spec_from_json(doc)


def test_path_report_lipschitz_columns():
    report = run(make_spec())
    assert report.passed
    pairwise = [item for item in report.items if "lipschitz_bound" in item]
    assert len(pairwise) == 10
    for item in pairwise:
        assert item["dstar_upper"] <= item["lipschitz_bound"]
        assert item["passed"] is True


def test_emit_json_round_trip():
    report = run(make_spec())
    payload = emit(report, "json")
    assert report_from_json(payload) == report


def test_density_json_fields():
    spec = spec_from_json(
        {
            "kind": "density",
            "chain": {"rank": 1, "scales": [2, 4, 8]},
            "params": {"cosets": {"level": 2, "reps": [0, 1]}},
        }
    )
    doc = json.loads(emit(run(spec), "json"))
    item = doc["items"][0]
    assert item == {"lower": "1/2", "upper": "1/2", "exact": True, "method": "exact-coset"}


def test_rationals_never_float_in_json():
    report = run(make_spec())
    doc = json.loads(emit(report, "json"))
    def walk(v):
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        elif isinstance(v, list):
            for x in v:
                walk(x)
        else:
            yield_values.append(v)
    yield_values = []
    walk(doc["items"])
    # every emitted density/bound is a "p/q" string, never a float
    for item in doc["items"]:
        for key in ("d_density", "dstar_upper", "lipschitz_bound"):
            if key in item:
                assert isinstance(item[key], str) and "/" in item[key]


def test_csv_has_sigfigs_and_exactness_column():
    spec = spec_from_json(
        {
            "kind": "density",
            "chain": {"rank": 1, "scales": [3, 6]},
            "params": {"cosets": {"level": 1, "reps": [0]}},
        }
    )
    text = emit(run(spec), "csv").decode()
    header, row = text.strip().splitlines()
    assert header.split(",")[-1] == "serialization"
    assert "0.333333333333" in row
    assert row.endswith("inexact-serialization")


def test_csv_exact_serialization_flag():
    spec = spec_from_json(
        {
            "kind": "density",
            "chain": {"rank": 1, "scales": [2, 4]},
            "params": {"cosets": {"level": 1, "reps": [0]}},
        }
    )
    text = emit(run(spec), "csv").decode()
    assert text.strip().splitlines()[1].endswith(",exact")


def test_empty_report_emits_valid_documents():
    report = ExperimentReport(kind="verify", spec={}, items=(), passed=True)
    assert json.loads(emit(report, "json"))["items"] == []
    assert emit(report, "csv").decode().strip() == "serialization"


def test_determinism_byte_identical():
    a = emit(run(make_spec()), "json")
    b = emit(run(make_spec()), "json")
    assert a == b
    assert json.loads(a)["wall_time_ms"] is None


def test_verify_all_report_matches_byte_identity_anchor():
    report = run(ExperimentSpec("verify", params={"suite": "all"}, seed=7))
    assert hashlib.sha256(emit(report, "json")).hexdigest() == VERIFY_ALL_SEED7_SHA256


def verify_bytes(suite: str) -> bytes:
    return emit(run(ExperimentSpec("verify", params={"suite": suite}, seed=7)), "json")


def test_verify_reports_identical_from_a_thread_pool():
    suites = ["psi", "regular", "entropy-counting"] * 2
    serial = [verify_bytes(s) for s in suites]
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(verify_bytes, suites)) == serial


def test_verify_reports_identical_from_a_process_pool():
    suites = ["psi", "regular", "entropy-counting"]
    serial = [verify_bytes(s) for s in suites]
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(verify_bytes, suites)) == serial


def test_verify_report_independent_of_hash_seed():
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "amenshift.cli", "verify", "--suite", "regular", "--seed", "7"],
            capture_output=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    assert all(proc.returncode == 0 for proc in outputs)
    assert outputs[0].stdout == outputs[1].stdout


def test_timing_goes_to_field_only_on_request():
    report = run(make_spec(), timing=True)
    assert report.wall_time_ms is not None


def test_schema_errors_carry_json_pointers():
    with pytest.raises(SpecError, match="/kind"):
        spec_from_json({"kind": "nope"})
    with pytest.raises(SpecError, match="/chain/scales/1"):
        spec_from_json({"kind": "path", "chain": {"rank": 1, "scales": [2, -4]}})
    with pytest.raises(SpecError, match="/params/depth"):
        spec_from_json({"kind": "path", "params": {"depth": -3}})
    with pytest.raises(SpecError, match="/seed"):
        spec_from_json({"kind": "path", "seed": "x"})
    # every runner but verify reads the chain, so a document without one is
    # refused here rather than failing inside the runner
    for kind in KINDS:
        if kind != "verify":
            with pytest.raises(SpecError, match="^/chain: required"):
                spec_from_json({"kind": kind})
    assert spec_from_json({"kind": "verify"}).chain is None


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"chain": {"rank": true, "scales": [2]}}', "/chain/rank: must be a positive integer"),
        ('{"chain": {"rank": 1, "scales": [2, true]}}', "/chain/scales/1: must be a positive integer"),
        ('{"params": {"depth": true}}', "/params/depth: must be a nonnegative integer"),
        ('{"params": {"window": false}}', "/params/window: must be a nonnegative integer"),
        ('{"params": {"level": true}}', "/params/level: must be a nonnegative integer"),
        ('{"seed": true}', "/seed: must be an integer"),
    ],
)
def test_schema_rejects_json_booleans_as_integers(doc, message):
    spec = {"kind": "verify", **json.loads(doc)}
    with pytest.raises(SpecError) as caught:
        spec_from_json(spec)
    assert str(caught.value) == message


@pytest.mark.parametrize("key", ["level_lo", "level_hi", "block_level", "stages", "alphabet_size"])
@pytest.mark.parametrize("value", [True, 1.9, "3", -1])
def test_schema_checks_every_integer_param(key, value):
    with pytest.raises(SpecError) as caught:
        spec_from_json({"kind": "verify", "params": {key: value}})
    assert str(caught.value) == f"/params/{key}: must be a nonnegative integer"
    spec_from_json({"kind": "verify", "params": {key: 3}})


def test_verify_kind_runs_named_suite():
    spec = spec_from_json({"kind": "verify", "params": {"suite": "es-binomial"}, "seed": 1})
    report = run(spec)
    assert report.passed
    assert all(item["suite"] == "es-binomial" for item in report.items)


def test_verify_shearer_suite_seeded():
    spec = spec_from_json({"kind": "verify", "params": {"suite": "shearer"}, "seed": 7})
    report = run(spec)
    assert report.passed
    summary = [item for item in report.items if item.get("check") == "all-100"]
    assert summary and summary[0]["passed"] is True
    # identical seed reproduces the identical report, different seed may not
    assert emit(run(spec), "json") == emit(report, "json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "amenshift.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_density_subcommand():
    proc = run_cli("density", "--scales", "2,4,8", "--level", "2", "--reps", "0,1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["items"][0]["lower"] == "1/2"


def test_cli_distance_between_descriptors():
    evens = json.dumps({"variant": "periodic", "level": 1, "word": {"0": "1", "1": "0"}})
    zeros = json.dumps({"variant": "periodic", "level": 1, "word": {"0": "0", "1": "0"}})
    proc = run_cli("distance", "--metric", "dstar", "--config", evens, "--config", zeros)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["items"][0]["lower"] == "1/2"
    assert doc["items"][0]["exact"] is True


@pytest.mark.parametrize("metric", ["dstar", "dwprime"])
def test_cli_window_distance_between_two_oracles(metric):
    # neither oracle carries a chain, so the window shape comes from the
    # chain of the spec (here the CLI's default chain)
    champ = json.dumps({"variant": "oracle", "box": 80, "rule": "champernowne_binary"})
    blocks = json.dumps({"variant": "oracle", "box": 80, "rule": "block_alternating(1/2)"})
    proc = run_cli(
        "distance", "--metric", metric, "--config", champ, "--config", blocks,
        "--level", "3", "--window", "40",
    )
    assert proc.returncode == 0, proc.stderr
    item = json.loads(proc.stdout)["items"][0]
    assert item["basis"] == "window-bracket"
    assert item["exact"] is False
    expected = dstar_distance(
        champernowne_binary(80),
        block_alternating(Fraction(1, 2), 80),
        3,
        40,
        make_chain(1, DEFAULT_SCALES),
    ).value
    assert (Fraction(item["lower"]), Fraction(item["upper"])) == (expected.lower, expected.upper)


def test_cli_path_csv_format():
    proc = run_cli(
        "path", "--t-grid", "0,1/2,1", "--depth", "4", "--scales", "2,4,8,16",
        "--format", "csv",
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("t,")


def test_cli_krieger_and_exit_code():
    proc = run_cli("krieger", "--gamma", "1/2", "--stages", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True


def test_cli_entropy_csv_columns():
    cfg = json.dumps({"variant": "periodic", "level": 1, "word": {"0": "1", "1": "0"}})
    proc = run_cli(
        "entropy", "--config", cfg, "--level-lo", "1", "--level-hi", "3",
        "--format", "csv",
    )
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    for column in ("level", "pattern_count", "estimate_nats", "saturated", "exactness"):
        assert column in header


def test_cli_omega_subcommand():
    cfg = json.dumps({"variant": "oracle", "box": 64, "rule": "block_alternating(1/2)"})
    proc = run_cli(
        "omega", "--config", cfg, "--boxes", "geometric", "--eps", "1/2",
        "--level-lo", "1", "--level-hi", "5", "--format", "csv",
    )
    assert proc.returncode == 0
    assert "consecutive_dp" in proc.stdout.splitlines()[0]


def test_cli_toeplitz_profile():
    table = json.dumps(
        {"variant": "toeplitz", "assignments": [[1, 0, "a"], [2, 1, "b"]]}
    )
    proc = run_cli("toeplitz", "profile", "--config", table, "--depth", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["items"][0]["per_density"] == "1/2"


def test_cli_malformed_spec_is_schema_error(tmp_path, capsys):
    proc = run_cli("path", "--depth", "-2")
    assert proc.returncode == 2
    assert "spec error" in proc.stderr
    assert "/params/depth" in proc.stderr
    # a malformed --spec file is refused before any flag is merged into it
    for argv, doc, message in [
        (["verify"], {"params": ["x"]}, "/params: must be an object"),
        (["path", "--rank", "1"], {"chain": [1]}, "/chain: must be an object"),
        (["verify"], [1, 2], ": spec must be an object"),
    ]:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert main([*argv, "--spec", str(path)]) == 2
        assert capsys.readouterr().err == f"spec error: {message}\n"


TOEPLITZ_DESC = {"variant": "toeplitz", "assignments": [[1, 0, "a"], [2, 1, "b"]]}
ORACLE_DESC = {"variant": "oracle", "box": 16, "rule": "champernowne_binary"}


def test_cli_toeplitz_interpolate_takes_a_periodic_endpoint(capsys):
    evens = json.dumps({"variant": "periodic", "level": 1, "word": {"0": "1", "1": "0"}})
    argv = ["toeplitz", "interpolate", "--scales", "2,4,8", "--t", "1/2"]
    assert main([*argv, "--config", evens, "--config", json.dumps(TOEPLITZ_DESC)]) == 0
    table = json.loads(capsys.readouterr().out)["items"][0]["table"]
    # Ψ(1/2) puts coset 0 of H_1 on the one-side (the word's "1") and coset 1
    # on the zero-side, where the table knows only 1 + H_2
    assert table["assignments"] == [[1, "0", "1"], [2, "1", "b"]]


@pytest.mark.parametrize("action", ["verify", "profile", "approx", "interpolate"])
def test_cli_toeplitz_rejects_an_oracle_config(action, capsys):
    configs = [json.dumps(ORACLE_DESC), json.dumps(TOEPLITZ_DESC)]
    argv = ["toeplitz", action, "--scales", "2,4,8", "--depth", "2"]
    assert main([*argv, "--config", configs[0], "--config", configs[1]]) == 2
    # one message, true for every caller: none of them can use an oracle
    assert capsys.readouterr().err == (
        "error: InexactVariant: needs a subgroup chain: a Periodic or ToeplitzTable configuration\n"
    )


@pytest.mark.parametrize(
    "desc, variant, field",
    [
        ({"variant": "periodic", "level": 1}, "periodic", "word"),
        ({"variant": "periodic", "word": {"0": "a", "1": "b"}}, "periodic", "level"),
        ({"variant": "periodic", "level": "1", "word": {"0": "a", "1": "b"}}, "periodic", "level"),
        ({"variant": "periodic", "level": 1, "word": ["a", "b"]}, "periodic", "word"),
        ({"variant": "toeplitz"}, "toeplitz", "assignments"),
        ({"variant": "toeplitz", "assignments": [5]}, "toeplitz", "assignments"),
        ({"variant": "toeplitz", "assignments": [[1, 0.5, "a"]]}, "toeplitz", "assignments"),
        ({"variant": "oracle", "rule": "champernowne_binary"}, "oracle", "box"),
        ({"variant": "oracle", "box": 16}, "oracle", "rule"),
        ({"variant": "oracle", "box": True, "rule": "champernowne_binary"}, "oracle", "box"),
    ],
)
def test_cli_malformed_descriptor_exits_2(desc, variant, field, capsys):
    good = json.dumps(TOEPLITZ_DESC)
    assert main(["distance", "--config", json.dumps(desc), "--config", good]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {variant} descriptor: {field!r} must be"), err


@pytest.mark.parametrize(
    "argv, params, message",
    [
        (["density"], {"cosets": 5}, "/params/cosets: must be an object with a level and reps"),
        (["density"], {"cosets": {"level": 1}}, "/params/cosets/reps: must be an array"),
        (["density"], {"cosets": {"reps": [0]}}, "/params/cosets/level: must be a nonnegative"),
        (["density"], {"cosets": {"level": 1, "reps": [[0, [1]]]}}, "/params/cosets/reps: "),
        (["path"], {"t_grid": "1/2"}, "/params/t_grid: must be an array"),
        (["verify"], {"suite": ["chain"]}, "/params/suite: must be one of"),
    ],
)
def test_cli_malformed_params_exit_2(tmp_path, capsys, argv, params, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"params": params}))
    assert main([*argv, "--scales", "2,4", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"spec error: {message}")


def test_cli_verify_suite():
    proc = run_cli("verify", "--suite", "chain", "--seed", "0")
    assert proc.returncode == 0


EVENS_DESC = {"variant": "periodic", "level": 1, "word": {"0": "1", "1": "0"}}
ZEROS_DESC = {"variant": "periodic", "level": 1, "word": {"0": "0", "1": "0"}}
DEEP_SCALES = ",".join(str(2**k) for k in range(1, 13))


@pytest.mark.parametrize(
    "argv, spec, check",
    [
        (
            ["distance"],
            {"configs": [EVENS_DESC, ZEROS_DESC], "params": {"metric": "besicovitch"}},
            lambda doc: doc["items"][0]["metric"] == "besicovitch",
        ),
        (
            ["omega", "--level-lo", "1", "--level-hi", "3"],
            {"configs": [EVENS_DESC], "params": {"boxes": "linear"}},
            lambda doc: [item["size"] for item in doc["items"]] == [2, 3, 4],
        ),
        (
            ["krieger", "--stages", "1"],
            {"params": {"alphabet_size": 3}},
            lambda doc: doc["items"][0]["planted"] == 3**1 - 1,
        ),
        (
            ["krieger", "--scales", DEEP_SCALES],
            {"params": {"stages": 3}},
            lambda doc: [item["stage"] for item in doc["items"]] == [0, 1, 2, 3],
        ),
        (
            ["verify"],
            {"params": {"suite": "chain"}},
            lambda doc: {item["suite"] for item in doc["items"]} == {"chain"},
        ),
    ],
    ids=["metric", "boxes", "alphabet_size", "stages", "suite"],
)
def test_cli_flag_defaults_leave_spec_values(tmp_path, capsys, argv, spec, check):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([*argv, "--spec", str(path)]) == 0
    assert check(json.loads(capsys.readouterr().out))


def test_cli_flags_win_over_spec_and_defaults_fill_in_flag_order(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"params": {"suite": "es-binomial"}}))
    assert main(["verify", "--spec", str(path), "--suite", "chain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {item["suite"] for item in doc["items"]} == {"chain"}
    # with flags alone a default takes its DIRECT_PARAMS place in the echo
    zeros = json.dumps(ZEROS_DESC)
    assert main(["distance", "--config", zeros, "--config", zeros, "--level", "2"]) == 0
    params = json.loads(capsys.readouterr().out)["spec"]["params"]
    assert list(params.items()) == [("level", 2), ("metric", "dstar")]


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "density", "--scales", "2,4", "--level", "1", "--reps", "0", "--out", str(out)
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["passed"] is True


# ---------------------------------------------------------------------------
# the verdict rule: a report passes iff every VERDICTS field of its items holds
# ---------------------------------------------------------------------------

CONSTANT_WORD = {"variant": "periodic", "level": 1, "word": {"0": "a", "1": "a"}}


def test_cli_failing_skeleton_report_exits_1(capsys):
    # a constant word has no separated skeleton: one item, passed false
    argv = ["toeplitz", "verify", "--config", json.dumps(CONSTANT_WORD), "--depth", "1"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [item["passed"] for item in doc["items"]] == [False]
    assert doc["passed"] is False


@pytest.mark.parametrize("key", VERDICTS)
def test_verify_exits_1_when_a_suite_item_fails(monkeypatch, capsys, key):
    monkeypatch.setitem(
        suites.SUITES, "chain", lambda seed=0: [{"check": "ok", key: True}, {key: False}]
    )
    assert main(["verify", "--suite", "chain"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert [item["suite"] for item in doc["items"]] == ["chain", "chain"]
    # the same items with every verdict true pass
    monkeypatch.setitem(suites.SUITES, "chain", lambda seed=0: [{"check": "ok", key: True}])
    assert main(["verify", "--suite", "chain"]) == 0


VERDICT_SPECS = [
    {"kind": "density", "params": {"cosets": {"level": 2, "reps": [0, 1]}}},
    {"kind": "distance", "configs": [EVENS_DESC, ZEROS_DESC], "params": {"metric": "weyl"}},
    {"kind": "entropy", "configs": [EVENS_DESC], "params": {"level_hi": 2}},
    {"kind": "omega", "configs": [EVENS_DESC], "params": {"boxes": "linear", "level_hi": 4}},
    {"kind": "path", "params": {"depth": 4, "t_grid": ["0", "1/3", "1"]}},
    {"kind": "krieger", "params": {"stages": 1}},
    {"kind": "toeplitz", "configs": [TOEPLITZ_DESC], "params": {"action": "approx", "level": 1}},
    {"kind": "toeplitz", "configs": [CONSTANT_WORD], "params": {"action": "verify", "depth": 1}},
    {"kind": "toeplitz", "configs": [TOEPLITZ_DESC], "params": {"action": "profile"}},
    {"kind": "verify", "params": {"suite": "psi"}},
    {"kind": "verify", "params": {"suite": "sandwich"}, "seed": 3},
]


@pytest.mark.parametrize("doc", VERDICT_SPECS, ids=lambda doc: doc["kind"])
def test_report_passes_iff_every_verdict_field_holds(doc):
    chain = {"rank": 1, "scales": [2, 4, 8, 16]}
    report = run(spec_from_json({"chain": chain, **doc}))
    flags = [item[key] for item in report.items for key in VERDICTS if key in item]
    assert report.passed == all(flags)
    assert json.loads(emit(report, "json"))["passed"] is all(flags)
    if doc["kind"] in ("path", "krieger", "omega", "verify"):
        assert flags


def test_direct_specs_are_checked_where_they_are_built():
    with pytest.raises(SpecError, match="^/chain: required"):
        run(ExperimentSpec(kind="path"))
    with pytest.raises(SpecError, match="^/params/level: must be a nonnegative integer"):
        ExperimentSpec("verify", params={"level": "3"})
    with pytest.raises(SpecError, match="^/kind: must be one of"):
        ExperimentSpec("nope")
    with pytest.raises(SpecError, match="^/configs/0: must be an object with a variant"):
        ExperimentSpec("entropy", {"rank": 1, "scales": [2]}, configs=("x",))
