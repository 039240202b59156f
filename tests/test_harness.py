import ast
import csv
import enum
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from collections import Counter, OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import amenshift
from amenshift import cli, harness, suites
from amenshift.cli import DEFAULT_SCALES, main
from amenshift.configs import block_alternating, champernowne_binary
from amenshift.errors import SpecError
from amenshift.groups import box, make_chain
from amenshift.harness import (
    KINDS,
    PARAMS,
    VERDICTS,
    ExperimentReport,
    ExperimentSpec,
    emit,
    run,
    spec_from_json,
)
from amenshift.metrics import dstar_distance

# sha256 of the JSON report of `amenshift verify --suite all --seed 7`, the
# byte-identity anchor also recorded in bench/references.json: a change that
# keeps every report keeps this digest.
VERIFY_ALL_SEED7_SHA256 = "472456c780366e86cbe7c28d0b55638151645757c6af1bf1617f30ffd96ee880"

# sha256 of the report of every other README "Command line" example, in the
# format it asks for, and of one --spec file merged with flags (see
# test_cli_spec_file_merged_with_flags_matches_its_byte_pin): the per-kind
# byte pins that a change to the CLI or the runners must keep
README_EXAMPLES_SHA256 = {
    "density": (
        ["density", "--scales", "2,4,8", "--level", "2", "--reps", "0,1"],
        "88c70313b414bc8a08ab2ce36be7109a747bb681af14ba8e749e78648d382eeb",
    ),
    "distance": (
        [
            "distance", "--metric", "dstar",
            "--config", '{"variant":"periodic","level":1,"word":{"0":"1","1":"0"}}',
            "--config", '{"variant":"periodic","level":1,"word":{"0":"0","1":"0"}}',
        ],
        "d5606adb53c893e7c4e0357dc8848819e1dde9097a793f90ea96d28ed3296100",
    ),
    "entropy": (
        [
            "entropy", "--config", '{"variant":"oracle","box":512,"rule":"champernowne_binary"}',
            "--level-lo", "1", "--level-hi", "3", "--window", "400", "--format", "csv",
        ],
        "dd9b42ee8adc03fa3a61f3c7170cdb9dc6098cfaa92429822fb82db751a490e4",
    ),
    "omega": (
        [
            "omega", "--config", '{"variant":"oracle","box":4097,"rule":"block_alternating(1/2)"}',
            "--boxes", "geometric", "--eps", "1/2", "--level-lo", "1", "--level-hi", "12",
            "--format", "csv",
        ],
        "cba4468f554b11f661faac9609764c3784cd8876dc986c925b4770e794dce46c",
    ),
    "path": (
        ["path", "--t-grid", "0,1/4,1/2,3/4,1", "--depth", "6", "--format", "csv"],
        "dd4c5ca47d20ff66345f9096007b677aa6b6fbf4358a9b1bfd1595d256bc2e2a",
    ),
    "krieger": (
        ["krieger", "--gamma", "1/2", "--alphabet-size", "2", "--stages", "2"],
        "3ee3b4eec986d54f1c65807d4bc0c3a1f2bb03872385ba0635a57ccf6c9ccf87",
    ),
    "toeplitz": (
        [
            "toeplitz", "profile",
            "--config", '{"variant":"toeplitz","assignments":[[1,0,"a"],[2,1,"b"]]}', "--depth", "3",
        ],
        "3cb06973e21c2460c8dad8e2f4881acf872e85ec8157a3d7e27b16b5da7bf1bb",
    ),
}
SPEC_MERGED_WITH_FLAGS_SHA256 = "ea1eef93bb104c4442816da226c73822ecff043e81b3241be0cb1a44b189510d"

# argv, exit code and sha256 of reports with list-valued (toeplitz verify),
# dict-valued (toeplitz interpolate) and float-valued (krieger) columns, in
# JSON and CSV: the columns whose rendering depends on the runner's own types
_TABLE = '{"variant":"toeplitz","assignments":[[1,0,"a"],[2,1,"b"]]}'
_WORD = '{"variant":"periodic","level":1,"word":{"0":"a","1":"b"}}'
_INTERPOLATE = [
    "toeplitz", "interpolate", "--scales", "2,4,8", "--t", "1/3",
    "--config", _WORD, "--config", _TABLE,
]
COLUMN_TYPE_PINS = {
    "verify-json": (
        ["toeplitz", "verify", "--config", _TABLE, "--depth", "3"],
        1,
        "fdf4cf73633878c0f4d4cc4808b0820d52d62709a906df848f20d2e603fde651",
    ),
    "verify-csv": (
        ["toeplitz", "verify", "--config", _TABLE, "--depth", "3", "--format", "csv"],
        1,
        "63acdebed6c16e611709447627ed391a6706c6aaf0c6dbefe0d6c65733ea79bd",
    ),
    "interpolate-json": (
        _INTERPOLATE, 0, "ca1c29f50a4faf992c98ac9fdc0b476ca9d57ae3a51c779bedd725010e0bcbbd"
    ),
    "interpolate-csv": (
        [*_INTERPOLATE, "--format", "csv"],
        0,
        "a9008a21432dab8572e6939195e88c85778b8a209329846300bc0d16eea173cf",
    ),
    "krieger-csv": (
        ["krieger", "--gamma", "2/3", "--alphabet-size", "2", "--stages", "2", "--format", "csv"],
        0,
        "19bbd9436d54eb0e84930de5508bd30abfb73eb1f2e6e363c85005d2a6ebef46",
    ),
}

# CLI subprocesses import the same amenshift as these tests, installed or not
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.dirname(amenshift.__path__[0]), os.environ.get("PYTHONPATH")])
    ),
}


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


@pytest.mark.parametrize("kind", README_EXAMPLES_SHA256)
def test_cli_readme_examples_match_their_byte_pins(kind, capsys):
    argv, digest = README_EXAMPLES_SHA256[kind]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", COLUMN_TYPE_PINS)
def test_cli_list_dict_and_float_columns_match_their_byte_pins(case, capsys):
    argv, code, digest = COLUMN_TYPE_PINS[case]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_readme_public_api_lists_every_export():
    # README's "Public API" section has one "- `module`: `name`, ..." line per
    # module, naming exactly what amenshift/__init__.py imports from it
    init = ast.parse(Path(amenshift.__file__).read_text(encoding="utf-8"))
    exported = {
        node.module: {alias.name for alias in node.names}
        for node in init.body
        if isinstance(node, ast.ImportFrom)
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        m[1]: set(re.findall(r"`(\w+)`", m[2]))
        for m in re.finditer(r"^- `(\w+)`: (.*)$", section, re.MULTILINE)
    }
    assert listed == exported


def test_cli_spec_file_merged_with_flags_matches_its_byte_pin(tmp_path, capsys):
    # the file's params keep their places, a flag overrides in place, and a
    # flag the file lacks follows them in table order
    evens = {"variant": "periodic", "level": 1, "word": {"0": "1", "1": "0"}}
    zeros = {"variant": "periodic", "level": 1, "word": {"0": "0", "1": "0"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"configs": [evens, zeros], "params": {"window": 3, "metric": "dstar"}}))
    argv = ["distance", "--spec", str(path), "--scales", "2,4,8,16", "--metric", "weyl", "--block-level", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert list(json.loads(out)["spec"]["params"]) == ["window", "metric", "block_level"]
    assert hashlib.sha256(out.encode()).hexdigest() == SPEC_MERGED_WITH_FLAGS_SHA256


def verify_bytes(suite: str) -> bytes:
    return emit(run(ExperimentSpec("verify", params={"suite": suite}, seed=7)), "json")


def test_verify_reports_identical_from_a_thread_pool():
    suites = ["psi", "regular", "entropy-counting", "coset-density", "shearer"] * 2
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
            env={**CLI_ENV, "PYTHONHASHSEED": seed},
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
    # a well-typed value is accepted by a kind that reads it and refused by one that does not
    spec_from_json({"kind": PARAMS[key].kinds[0], "chain": {"rank": 1, "scales": [2]}, "params": {key: 3}})
    with pytest.raises(SpecError, match=f"^/params/{key}: not read by verify"):
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
        env=CLI_ENV,
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


def test_cli_chain_file_is_checked_before_flags_are_merged_into_it(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text("[1]")
    assert main(["path", "--chain", str(path), "--rank", "2"]) == 2
    assert capsys.readouterr() == ("", "spec error: /chain: must be an object\n")


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


# letters are strings, and one that spells a fraction is a letter like any other
@pytest.mark.parametrize("letter", ["2/4", "1/0", "-3/6"])
def test_cli_reports_a_fraction_shaped_letter_verbatim(letter, capsys):
    word = {"0": letter, "1": "a"}
    desc = json.dumps({"variant": "periodic", "level": 1, "word": word})
    assert main(["toeplitz", "approx", "--scales", "2,4", "--config", desc, "--level", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["items"][0]["word"] == word


def test_cli_interpolate_csv_keeps_fraction_shaped_letters(capsys):
    z = json.dumps({"variant": "periodic", "level": 1, "word": {"0": "2/4", "1": "a"}})
    zp = json.dumps({"variant": "periodic", "level": 1, "word": {"0": "a", "1": "3/6"}})
    argv = ["toeplitz", "interpolate", "--scales", "2,4", "--config", z, "--config", zp]
    assert main([*argv, "--format", "csv"]) == 0
    [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert json.loads(row["table"])["assignments"] == [[1, "0", "2/4"], [1, "1", "3/6"]]


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
        # letters are strings: JSON null is no letter, and a number is not coerced
        ({"variant": "periodic", "level": 1, "word": {"0": None, "1": "0"}}, "periodic", "word"),
        ({"variant": "periodic", "level": 1, "word": {"0": 1, "1": "0"}}, "periodic", "word"),
        ({"variant": "toeplitz", "assignments": [[1, 0, None]]}, "toeplitz", "assignments"),
        ({"variant": "toeplitz", "assignments": [[1, 0, ["a"]]]}, "toeplitz", "assignments"),
    ],
)
def test_cli_malformed_descriptor_exits_2(desc, variant, field, capsys):
    good = json.dumps(TOEPLITZ_DESC)
    assert main(["distance", "--config", json.dumps(desc), "--config", good]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {variant} descriptor: {field!r} must be"), err


def test_cli_entropy_refuses_a_chain_of_another_rank(capsys):
    oracle = json.dumps({"variant": "oracle", "box": 8, "rule": "champernowne_binary"})
    argv = ["--rank", "2", "--scales", "2,4", "--config", oracle, "--window", "2", "--level", "1"]
    assert main(["entropy", *argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: chain rank 2 differs from the configuration's rank 1\n"
    assert main(["density", *argv]) == 2


@pytest.mark.parametrize(
    "argv, params, message",
    [
        (["density"], {"cosets": 5}, "/params/cosets: must be an object with a level and reps"),
        (["density"], {"cosets": {"level": 1}}, "/params/cosets/reps: must be an array"),
        (["density"], {"cosets": {"reps": [0]}}, "/params/cosets/level: must be a nonnegative"),
        (["density"], {"cosets": {"level": 1, "reps": [[0, [1]]]}}, "/params/cosets/reps: "),
        (["path"], {"t_grid": "1/2"}, "/params/t_grid: must be an array"),
        (["verify"], {"suite": ["chain"]}, "/params/suite: must be one of"),
        # letters are strings, as in descriptors: neither a list nor a number is coerced
        (["density"], {"letter": ["1"]}, "/params/letter: must be a string"),
        (["density"], {"letter": 1}, "/params/letter: must be a string"),
    ],
)
def test_cli_malformed_params_exit_2(tmp_path, capsys, argv, params, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"params": params}))
    assert main([*argv, "--scales", "2,4", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"spec error: {message}")


# every param is checked against the one table before any runner starts, so
# each refusal is one line naming the param; the kind's other defects wait
@pytest.mark.parametrize(
    "argv, params, line",
    [
        (["path"], {"windw": 3}, "/params/windw: unknown param"),
        (["density"], {"a/b~": 1}, "/params/a~1b~0: unknown param"),
        (["krieger"], {"gamma": [1]}, '/params/gamma: must be a rational, an integer or a "p/q" string'),
        (["krieger"], {"gamma": "1/0"}, '/params/gamma: must be a rational, an integer or a "p/q" string'),
        (["omega"], {"eps": {"a": 1}}, '/params/eps: must be a rational, an integer or a "p/q" string'),
        (["path"], {"t_grid": ["0", "3/2"]}, "/params/t_grid/1: must be a rational in [0, 1]"),
        (["path"], {"t_grid": [None]}, "/params/t_grid/0: must be a rational in [0, 1]"),
        (["toeplitz", "interpolate"], {"t": "-1/2"}, "/params/t: must be a rational in [0, 1]"),
        (["verify"], {"window": 3}, "/params/window: not read by verify, only by density, distance, entropy"),
        (["omega"], {"depth": 3}, "/params/depth: not read by omega, only by path, krieger, toeplitz"),
        # no configurations either: the param is refused first
        (["distance"], {"metric": "foo"}, "/params/metric: must be one of dstar, weyl, besicovitch, dwprime"),
        (["toeplitz", "profile"], {"action": "x"}, "/params/action: must be one of verify, profile, approx, interpolate"),
    ],
)
def test_cli_refuses_a_param_at_its_pointer(tmp_path, capsys, argv, params, line):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"params": params}))
    assert main([*argv, "--scales", "2,4", "--spec", str(path)]) == 2
    assert capsys.readouterr() == ("", f"spec error: {line}\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["path", "--t-grid", "0,3/2"], "/params/t_grid/1: must be a rational in [0, 1]"),
        (["krieger", "--gamma", "x"], '/params/gamma: must be a rational, an integer or a "p/q" string'),
        (["distance", "--metric", "foo"], "/params/metric: must be one of dstar, weyl, besicovitch, dwprime"),
        (["omega", "--boxes", "x"], "/params/boxes: must be one of chain, linear, geometric"),
        (["toeplitz", "x"], "/params/action: must be one of verify, profile, approx, interpolate"),
    ],
)
def test_cli_flags_are_checked_like_spec_params(capsys, argv, line):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"spec error: {line}\n")


def test_direct_spec_params_are_checked_against_the_table():
    chain = {"rank": 1, "scales": [2, 4]}
    with pytest.raises(SpecError, match="^/params/windw: unknown param$"):
        ExperimentSpec("path", chain, params={"windw": 3})
    with pytest.raises(SpecError, match="^/params/level: not read by path"):
        ExperimentSpec("path", chain, params={"level": 1})
    # a spec of an unknown kind is refused at /kind once its params are well typed
    with pytest.raises(SpecError, match="^/kind: must be one of"):
        ExperimentSpec("nope", chain, params={"level": 1})
    # the rows name exactly the runners' kinds
    assert {kind for row in PARAMS.values() for kind in row.kinds} == set(KINDS)


CHAMP20 = '{"variant":"oracle","box":20,"rule":"champernowne_binary"}'


def test_cli_density_refuses_a_letter_outside_the_alphabet(capsys):
    assert main(["density", "--config", CHAMP20, "--letter", "7"]) == 2
    assert capsys.readouterr() == (
        "", "spec error: /params/letter: '7' is not a letter of the configuration: '0', '1'\n"
    )
    # the default letter "1" is no letter of an a/b table either
    table = json.dumps(TOEPLITZ_DESC)
    assert main(["density", "--scales", "2,4", "--config", table]) == 2
    assert capsys.readouterr().err == (
        "spec error: /params/letter: '1' is not a letter of the configuration: 'a', 'b'\n"
    )
    assert main(["density", "--scales", "2,4", "--config", table, "--letter", "b"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"]["params"]["letter"] == "b"


@pytest.mark.parametrize(
    "doc, line",
    [
        ({"kind": "path", "parms": {"depth": 2}}, "/parms: unknown key"),
        ({"kind": "path", "params": {}, "a/b~": 1}, "/a~1b~0: unknown key"),
    ],
)
def test_a_spec_refuses_an_unknown_top_level_key(tmp_path, capsys, doc, line):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["path", "--spec", str(path)]) == 2
    assert capsys.readouterr() == ("", f"spec error: {line}\n")
    with pytest.raises(SpecError, match=f"^{line}$"):
        spec_from_json({**doc, "chain": {"rank": 1, "scales": [2, 4]}})


BOXED = ["--config", CHAMP20, "--scales", "2,4,8"]
PERIODIC_PAIR = [
    "--config", '{"variant":"periodic","level":1,"word":{"0":"0","1":"1"}}',
    "--config", '{"variant":"periodic","level":1,"word":{"0":"0","1":"0"}}',
]


# an empty level range is refused at level_hi, also where level_hi is the
# runner's default (entropy: level, omega: the table's 1, besicovitch: the
# chain's depth)
@pytest.mark.parametrize(
    "argv, hi",
    [
        (["entropy", *BOXED, "--window", "3", "--level-lo", "3", "--level-hi", "1"], 1),
        (["entropy", *BOXED, "--window", "3", "--level-lo", "3", "--level", "2"], 2),
        (["omega", *BOXED, "--level-lo", "3", "--level-hi", "2"], 2),
        (["omega", *BOXED, "--level-lo", "2"], 1),
        (["omega", *BOXED, "--boxes", "geometric", "--level-lo", "3", "--level-hi", "1"], 1),
        (["distance", "--metric", "besicovitch", *PERIODIC_PAIR, "--scales", "2,4", "--level-lo", "3"], 2),
        (["distance", "--metric", "besicovitch", *PERIODIC_PAIR, "--level-lo", "2", "--level-hi", "1"], 1),
    ],
)
def test_an_empty_level_range_is_refused_at_level_hi(capsys, argv, hi):
    assert main(argv) == 2
    lo = argv[argv.index("--level-lo") + 1]
    assert capsys.readouterr() == (
        "", f"spec error: /params/level_hi: {hi} is below level_lo {lo}: the level range is empty\n"
    )


def test_a_besicovitch_level_past_the_chain_is_named(capsys):
    # the default chain has depth 8
    argv = ["distance", "--metric", "besicovitch", *PERIODIC_PAIR, "--level-lo", "3", "--level-hi", "9"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: LevelOutOfRange: level 9 outside 0..8\n")


def test_a_one_level_range_runs():
    assert main(["entropy", *BOXED, "--window", "3", "--level-lo", "2", "--level-hi", "2"]) == 0
    assert main(["omega", *BOXED, "--level-lo", "1"]) == 0


# each subcommand's flags: the spec-level ones and its kind's rows of the table
SPEC_LEVEL_FLAGS = {
    "-h", "--help", "--spec", "--chain", "--rank", "--scales", "--seed", "--config", "--out",
    "--format", "--timing",
}
KIND_FLAGS = {
    "density": {"--window", "--level", "--letter", "--reps"},
    "distance": {"--window", "--level", "--level-lo", "--level-hi", "--metric", "--block-level"},
    "entropy": {"--window", "--level", "--level-lo", "--level-hi"},
    "omega": {"--level-lo", "--level-hi", "--boxes", "--eps"},
    "path": {"--depth", "--t-grid"},
    "krieger": {"--depth", "--gamma", "--alphabet-size", "--stages"},
    "toeplitz": {"--depth", "--level", "--t", "action"},
    "verify": {"--suite"},
}


def test_cli_each_kind_has_the_flags_of_its_table_rows():
    [subcommands] = [a.choices for a in cli.build_parser()._actions if a.dest == "kind"]
    assert list(subcommands) == list(KINDS)
    for kind, parser in subcommands.items():
        flags = {a.option_strings[0] if a.option_strings else a.dest for a in parser._actions}
        flags |= {s for a in parser._actions for s in a.option_strings}
        assert flags == SPEC_LEVEL_FLAGS | KIND_FLAGS[kind], kind


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


def test_cli_out_into_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "report.json"
    proc = run_cli("density", "--scales", "2,4", "--level", "1", "--reps", "0", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not out.parent.exists()


# ---------------------------------------------------------------------------
# the parser is built once per process and shared by every main() call
# ---------------------------------------------------------------------------

CHAMP_DESC = json.dumps({"variant": "oracle", "box": 40, "rule": "champernowne_binary"})


def count_parser_builds(monkeypatch) -> list:
    """Forget the shared parser and record each build_parser call from now on."""
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    return built


def test_cli_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = count_parser_builds(monkeypatch)
    for _ in range(3):
        assert main(["density", "--scales", "2,4", "--level", "1", "--reps", "0"]) == 0
    assert main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()
    assert len(built) == 1


def test_cli_call_after_one_with_config_behaves_like_a_fresh_process(capsys):
    # an append flag's default list is shared by every parse and must stay empty
    assert main(["density", "--config", CHAMP_DESC, "--level", "1", "--window", "2"]) == 0
    capsys.readouterr()
    assert main(["density", "--scales", "2,4"]) == 2
    fresh = run_cli("density", "--scales", "2,4")
    assert (fresh.returncode, fresh.stderr) == (2, capsys.readouterr().err)
    assert fresh.stderr == "spec error: /configs: density needs a configuration or a coset set\n"


def test_cli_density_refuses_a_coset_set_beside_a_configuration(capsys):
    periodic = '{"variant":"periodic","level":1,"word":{"0":"1","1":"0"}}'
    assert main(["density", "--reps", "0", "--level", "1", "--config", periodic]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spec error: /configs: density reads a coset set or a configuration, not both\n"


def test_cli_main_from_four_threads_writes_the_serial_bytes(monkeypatch, tmp_path):
    argvs = [
        ["density", "--config", CHAMP_DESC, "--level", "2", "--window", "8"],
        ["distance", "--config", CHAMP_DESC, "--config", json.dumps(EVENS_DESC), "--level", "1", "--window", "6"],
        ["entropy", "--config", CHAMP_DESC, "--level-hi", "2", "--window", "6"],
        ["omega", "--config", CHAMP_DESC, "--boxes", "linear", "--level-hi", "6", "--format", "csv"],
    ]

    def write(argv, name):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    serial = [write(argv, f"serial-{i}") for i, argv in enumerate(argvs)]
    # four first calls race to build the parser, the threads switching often
    built = count_parser_builds(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(write, argvs, [f"thread-{i}" for i in range(4)], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert len(built) == 1


# rank mismatches: a window scan reads each configuration once, checking the
# corner of its union box, and a letter walk checks its first cell; either
# names the cell as evaluate names it
@pytest.mark.parametrize(
    "argv, cell",
    [
        (["density"], "(-2, -2)"),
        (["distance", "--metric", "dstar", "--config", CHAMP_DESC, "--level", "1", "--window", "2"], "(-2, -2)"),
        (["omega", "--boxes", "chain"], "(0, 0)"),
    ],
    ids=["density", "dstar", "omega"],
)
def test_cli_rank_mismatch_names_the_first_cell(capsys, argv, cell):
    assert main([*argv, "--rank", "2", "--scales", "2,4", "--config", CHAMP_DESC]) == 2
    assert capsys.readouterr().err == f"error: element {cell} has rank 2, expected 1\n"


def test_cli_oracle_rule_with_a_zero_denominator_is_one_error_line(capsys):
    # so is a rule whose argument is no fraction, or one outside (0,1)
    outside = "needs eps in (0,1), such as 1/2"
    for arg, why in [
        ("1/0", "has a zero denominator"),
        ("x", "needs a fraction, such as 1/2"),
        *((eps, outside) for eps in ("2", "0", "1", "-1/2")),
    ]:
        desc = f'{{"variant":"oracle","box":3,"rule":"block_alternating({arg})"}}'
        assert main(["density", "--config", desc]) == 2
        assert capsys.readouterr() == ("", f"error: oracle rule 'block_alternating({arg})' {why}\n")


def test_cli_reps_that_are_not_integers_are_a_spec_error_at_their_field(capsys):
    for reps in ("1,x", "0,1.5", "a"):
        assert main(["density", "--reps", reps]) == 2
        assert capsys.readouterr() == (
            "",
            "spec error: /params/cosets/reps: must be an array of integers or integer arrays\n",
        )


def test_cli_empty_periodic_word_is_refused_as_not_total(capsys):
    for level in (0, 1, 2):
        desc = json.dumps({"variant": "periodic", "level": level, "word": {}})
        assert main(["density", "--config", desc]) == 2
        assert capsys.readouterr() == ("", f"error: word must be total on the level-{level} domain\n")


def test_cli_scales_that_are_not_integers_are_a_spec_error_at_their_item(capsys):
    # an item that is no int is kept as text, so the spec check names it
    for scales, i in (("2,x", 1), ("x", 0), ("2,4,1.5", 2), ("2,", 1)):
        assert main(["density", "--scales", scales, "--reps", "0"]) == 2
        assert capsys.readouterr() == ("", f"spec error: /chain/scales/{i}: must be a positive integer\n")


def test_cli_empty_toeplitz_table_is_refused_at_its_field(capsys):
    desc = json.dumps({"variant": "toeplitz", "assignments": []})
    assert main(["density", "--config", desc]) == 2
    assert capsys.readouterr() == ("", "error: toeplitz descriptor: 'assignments' must be nonempty\n")


def test_cli_entropy_names_the_first_unknown_cell_before_a_level_past_the_chain(capsys):
    # the default chain has 8 levels: level 9 is refused only after levels
    # 1..8 pass, and the box of radius 40 fails one of them first
    desc = json.dumps({"variant": "oracle", "box": 40, "rule": "champernowne_binary"})
    argv = ["entropy", "--config", desc, "--level-lo", "1", "--level-hi", "9", "--window", "5"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: UnknownMembership: configuration is Unknown at (41,)\n")
    wide = json.dumps({"variant": "oracle", "box": 600, "rule": "champernowne_binary"})
    assert main([argv[0], "--config", wide, *argv[3:]]) == 2
    assert capsys.readouterr() == ("", "error: LevelOutOfRange: level 9 outside 0..8\n")


def test_cli_omega_builds_each_box_only_when_the_trace_reads_it(monkeypatch, capsys):
    # geometric boxes of 2^n cells up to n = 70: the trace stops at the first
    # Unknown cell, (41,) in the box of 64 cells, before a larger box is built
    # or a box length past the next is drawn
    built, drawn = [], []

    def bounded_box(rank, side):
        if side > 10**4:
            raise AssertionError(f"a box of side {side} was built")
        built.append(side)
        return box(rank, side)

    def counted_lengths(eps):
        for length in lengths(eps):
            drawn.append(length)
            yield length

    lengths = harness._geometric_lengths
    monkeypatch.setattr(harness, "box", bounded_box)
    monkeypatch.setattr(harness, "_geometric_lengths", counted_lengths)
    cfg = '{"variant":"oracle","box":40,"rule":"champernowne_binary"}'
    argv = ["omega", "--config", cfg, "--boxes", "geometric", "--eps", "1/2", "--level-lo", "1", "--level-hi", "70"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: UnknownMembership: configuration is Unknown at (41,)\n")
    assert built == [2, 4, 8, 16, 32, 64]
    assert drawn[:7] == [1, *built] and len(drawn) <= 8


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


def test_spec_changed_after_it_is_built_is_refused_or_unchanged():
    chain = {"rank": 1, "scales": [2, 4]}
    params = {"t_grid": ["0", "1"]}
    spec = ExperimentSpec("path", chain, params=params)
    # the caller's dicts are not the spec's
    chain["rank"] = "x"
    params["depth"] = "2"
    assert spec.chain == {"rank": 1, "scales": [2, 4]} and "depth" not in spec.params
    assert run(spec).passed
    spec.params["depth"] = "2"
    with pytest.raises(SpecError, match="^/params/depth: must be a nonnegative integer"):
        run(spec)
    spec = ExperimentSpec("path", {"rank": 1, "scales": [2, 4]})
    spec.chain["rank"] = "x"
    with pytest.raises(SpecError, match="^/chain/rank: must be a positive integer"):
        run(spec)


def test_spec_owns_its_trees_non_json_leaves_included():
    # a leaf that is no JSON value is deep-copied; tuples, lists and dicts
    # are rebuilt, and the caller's changes to any of them stay outside
    extra, nested = {1, 2}, [{"a": [1]}]
    config = {"variant": "periodic", "level": 1, "word": {"0": "a", "1": "b"}, "extra": extra, "nested": nested}
    chain = {"rank": 1, "scales": (2, 4)}
    spec = ExperimentSpec("entropy", chain, configs=[config], params={"level": 1})
    extra.add(3)
    nested[0]["a"].append(2)
    config["word"]["1"] = "a"
    chain["scales"] = [3]
    assert spec.configs[0]["extra"] == {1, 2} and spec.configs[0]["nested"] == [{"a": [1]}]
    assert spec.configs[0]["word"] == {"0": "a", "1": "b"} and spec.chain == {"rank": 1, "scales": (2, 4)}
    assert type(spec.chain["scales"]) is tuple and type(spec.configs) is tuple


def test_a_report_holds_its_spec_fields_for_emit_to_convert(monkeypatch):
    # run stores the spec's fields as they are and never walks them; emit's
    # one walk writes them as jsonable then json would
    walked = []
    monkeypatch.setattr(harness, "jsonable", lambda v: walked.append(v) or v)
    oracle = {"variant": "oracle", "box": 9, "rule": "champernowne_binary"}
    spec = ExperimentSpec("entropy", {"rank": 1, "scales": (2, 4)}, configs=[oracle], params={"window": 2})
    report = run(spec)
    assert walked == [] and report.spec == vars(spec) and report.spec is not vars(spec)
    assert type(report.spec["configs"]) is tuple and type(report.spec["chain"]["scales"]) is tuple
    doc = json.loads(emit(report, "json"))["spec"]
    chain = {"rank": 1, "scales": [2, 4]}
    assert doc == {"kind": "entropy", "chain": chain, "configs": [oracle], "params": {"window": 2}, "seed": 0}


def test_spec_is_picklable():
    spec = make_spec()
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and emit(run(back), "json") == emit(run(spec), "json")


def test_direct_specs_are_checked_where_they_are_built():
    with pytest.raises(SpecError, match="^/chain: required"):
        run(ExperimentSpec(kind="path"))
    with pytest.raises(SpecError, match="^/params/level: must be a nonnegative integer"):
        ExperimentSpec("verify", params={"level": "3"})
    with pytest.raises(SpecError, match="^/kind: must be one of"):
        ExperimentSpec("nope")
    with pytest.raises(SpecError, match="^/configs/0: must be an object with a variant"):
        ExperimentSpec("entropy", {"rank": 1, "scales": [2]}, configs=("x",))


# ---------------------------------------------------------------------------
# any spec document: a report and exit 0 or 1, or exit 2 with one stderr line
# ---------------------------------------------------------------------------

# JSON values of the wrong shape for most fields; integers stay small, so a
# value that is accepted by mistake still runs in milliseconds
NOT_OBJECTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.sampled_from([0.5, 1e300, -0.0]),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
)
JUNK = NOT_OBJECTS | st.dictionaries(st.sampled_from(["level", "reps", "a"]), st.integers(0, 2), max_size=2)


def mostly(good):
    """The good strategy nine times in ten, else junk."""
    return st.integers(0, 9).flatmap(lambda i: JUNK if i == 9 else good)


RATIONALS = st.sampled_from(["0", "1", "1/2", "1/3", "0.25", "3/2", "-1", "1/0", "x", 1])
PARAM_VALUES = {
    "depth": st.integers(0, 4),
    "window": st.integers(0, 6),
    "level": st.integers(0, 4),
    "level_lo": st.integers(0, 4),
    "level_hi": st.integers(0, 4),
    "letter": st.sampled_from(["0", "1", "a", "7"]),
    "metric": st.sampled_from(PARAMS["metric"].choices + ("nope",)),
    "block_level": st.integers(0, 4),
    "boxes": st.sampled_from(PARAMS["boxes"].choices),
    "eps": RATIONALS,
    "gamma": RATIONALS,
    "alphabet_size": st.integers(0, 3),
    "stages": st.integers(0, 3),
    "action": st.sampled_from(PARAMS["action"].choices),
    "t": RATIONALS,
    "suite": st.sampled_from(["chain", "krieger", "nope"]),
    "t_grid": st.lists(RATIONALS, max_size=3),
    "cosets": st.fixed_dictionaries(
        {"level": st.integers(0, 4), "reps": st.lists(mostly(st.integers(-1, 9)), max_size=3)}
    ),
    "windw": st.integers(0, 3),
}
# chains of at most 3 levels: a document without one would get the CLI's
# default chain of depth 8
CHAINS = st.integers(0, 9).flatmap(
    lambda i: st.sampled_from(
        [
            {"rank": 1, "scales": [2, 4, 8]},
            {"rank": 1, "scales": [3, 6]},
            {"rank": 1, "scales": [1, 2]},
            {"rank": 2, "scales": [2, 4]},
        ]
    )
    if i < 9
    else st.sampled_from([{"rank": 1, "scales": [2, 3]}, {"rank": 1, "scales": []}, {"rank": 0, "scales": [2]}])
    | NOT_OBJECTS.filter(lambda v: v is not None)
)
CONFIGS = mostly(
    st.sampled_from(
        [
            EVENS_DESC,
            ZEROS_DESC,
            CONSTANT_WORD,
            TOEPLITZ_DESC,
            {"variant": "periodic", "level": 1, "word": {"0,0": "a", "0,1": "b", "1,0": "b", "1,1": "a"}},
            {"variant": "toeplitz", "assignments": [[3, 0, "a"]]},
            {"variant": "periodic", "level": 1, "word": {"0": "2/4", "1": "1/0"}},
            {"variant": "nope"},
        ]
    )
    | st.builds(
        lambda box, rule: {"variant": "oracle", "box": box, "rule": rule},
        st.integers(0, 64),
        st.sampled_from(["champernowne_binary", "block_alternating(1/2)", "block_alternating(x)", "nope"]),
    )
)


@st.composite
def spec_documents(draw):
    """A kind and a spec document for it: mostly its own params, well typed
    or not, now and then a param of another kind or none at all."""
    kind = draw(st.sampled_from(KINDS))
    own = [key for key, row in PARAMS.items() if kind in row.kinds]
    keys = draw(st.lists(st.sampled_from(own), max_size=3, unique=True))
    if draw(st.integers(0, 9)) == 9:
        keys.append(draw(st.sampled_from(sorted(PARAM_VALUES))))
    params = {key: draw(mostly(PARAM_VALUES[key])) for key in keys}
    if kind == "verify":
        # "all" takes seconds: verify runs one cheap suite, or is refused
        params["suite"] = draw(mostly(PARAM_VALUES["suite"]))
    doc = {"chain": draw(CHAINS), "params": params}
    if draw(st.integers(0, 9)) < 9:
        doc["configs"] = draw(mostly(st.lists(CONFIGS, min_size=1, max_size=3)))
    if draw(st.booleans()):
        doc["seed"] = draw(mostly(st.integers(0, 3)))
    spoil = draw(st.integers(0, 19))
    if spoil == 19:
        return kind, draw(NOT_OBJECTS)
    if spoil == 18:
        doc["params"] = draw(NOT_OBJECTS)
    return kind, doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec_documents(), st.sampled_from(PARAMS["action"].choices))
def test_cli_writes_a_report_or_one_error_line_for_any_spec_document(tmp_path, kind_doc, action):
    kind, doc = kind_doc
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    argv = [kind, action] if kind == "toeplitz" else [kind]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--spec", str(path)])
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert (report["passed"], err.getvalue()) == (code == 0, "")
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, err.getvalue()


# ---------------------------------------------------------------------------
# emit's one walk writes json.dumps(jsonable(value), indent=2) byte for byte
# ---------------------------------------------------------------------------

class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Text(str):
    pass


class Real(float):
    pass


class Ratio(Fraction):
    pass


class Row(list):
    pass


JSON_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1 / 3])
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | JSON_FLOATS
    | st.fractions()
    | st.text()  # non-ASCII and control characters included
    | st.sampled_from(["é\u2028\x00\n\t\"\\", "\ud800", ""])
    | st.builds(box, st.integers(1, 2), st.integers(1, 3))
    # subclasses of the exact types, which emit hands to jsonable and json
    | st.sampled_from(Level)
    | st.text(max_size=4).map(Text)
    | JSON_FLOATS.map(Real)
    | st.fractions().map(Ratio)
    | st.lists(JSON_FLOATS | st.fractions() | st.text(max_size=2), max_size=3).map(Row)
    | st.dictionaries(st.integers() | st.text(max_size=2), JSON_FLOATS | st.fractions(), max_size=3).map(OrderedDict)
    | st.lists(st.sampled_from("ab\n"), max_size=4).map(Counter)
)
JSON_KEYS = st.text(max_size=4) | st.integers() | JSON_FLOATS | st.booleans() | st.none()


def json_trees(leaves=JSON_LEAVES):
    return st.recursive(
        leaves,
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(JSON_KEYS, children, max_size=4)
        ),
        max_leaves=24,
    )


def old_render(value):
    return json.dumps(harness.jsonable(value), indent=2)


def rendered(render, value):
    """render(value), or the type and message of the error it raises."""
    try:
        return render(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(json_trees())
def test_one_walk_writes_the_bytes_of_jsonable_then_json(tree):
    assert harness._json_text(tree) == old_render(tree)


class Unserializable:
    pass


@settings(max_examples=150, deadline=None)
@given(json_trees(JSON_LEAVES | st.sampled_from([Unserializable(), {1, 2}, b"x", 1j])), st.data())
def test_one_walk_raises_where_json_raises(tree, data):
    # an unserializable leaf or a key that is no JSON key, anywhere in the tree
    bad = data.draw(st.sampled_from([Unserializable(), {(1,): 2}, {Fraction(1, 2): 1}, frozenset()]))
    for value in (tree, [tree, bad], {"a": tree, "b": [bad]}, {"x": bad, "y": tree}):
        assert rendered(harness._json_text, value) == rendered(old_render, value)


def test_emit_writes_the_old_document_bytes():
    # bool beside int, as values and as keys, and a timed report
    items = ({"t": (Fraction(1, 3), True, 1, False, 0, None, 2.5e-17), True: 1, 0: False, None: box(1, 2)},)
    timed = ExperimentReport("x", {"a": 1 / 3}, items, True, 12.345678901234)
    for r in (run(make_spec()), timed):
        doc = {"kind": r.kind, "spec": r.spec, "items": r.items, "passed": r.passed, "wall_time_ms": r.wall_time_ms}
        assert emit(r, "json") == (old_render(doc) + "\n").encode()
