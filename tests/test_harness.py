import hashlib
import json
import os
from pathlib import Path

import pytest

from orbikit import harness
from orbikit.cli import main as cli_main
from orbikit.harness import (
    SCHEMA_VERSION,
    ConfigError,
    BUILTIN_SCENARIOS,
    list_scenarios,
    run_scenario,
)

GOLDEN = Path(__file__).parent / "golden"


def cfg(name, **kw):
    out = {"schema_version": SCHEMA_VERSION, "scenario": name}
    out.update(kw)
    return out


def test_list_scenarios_builtins():
    rows = list_scenarios()
    names = [n for n, _ in rows]
    assert len(rows) >= 6
    for expected in (
        "a2-example",
        "free-rotation-circle",
        "pillowcase-torus",
        "noneffective-circle",
        "cech-localization",
        "cocycle-transport",
    ):
        assert expected in names


def test_registry_grows_with_user_file(tmp_path):
    path = tmp_path / "mine.json"
    path.write_text(
        json.dumps({"name": "a2-n5", "scenario": "a2-example", "params": {"N": 5}})
    )
    rows = list_scenarios(str(tmp_path))
    assert len(rows) == len(list_scenarios()) + 1
    assert any(n == "a2-n5" for n, _ in rows)


def test_corrupt_registry_file_named(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError) as err:
        list_scenarios(str(tmp_path))
    assert "broken.json" in str(err.value)


def test_a2_scenario_runs_green(tmp_path):
    code, report = run_scenario(cfg("a2-example"), out_dir=str(tmp_path))
    assert code == 0 and report["passed"]
    assert {c["name"] for c in report["checks"]} >= {
        "bitorsor-axioms",
        "fibre-blocks",
        "weak-equivalence-pair",
        "induced-sign-cocycle",
        "section-independence",
        "composition-roundtrip",
    }
    assert os.path.exists(tmp_path / "report.json")
    assert os.path.exists(tmp_path / "spectra.csv")
    assert os.path.exists(tmp_path / "summary.md")


def test_a2_scenario_param_n5():
    code, report = run_scenario(cfg("a2-example", params={"N": 5}))
    assert code == 0 and report["params"]["N"] == 5


@pytest.mark.parametrize("n", [1, 2])
def test_a2_bitorsor_axioms_at_small_n(n):
    # the mutated right action must break the axioms even where N is tiny
    code, report = run_scenario(cfg("a2-example", params={"N": n}, checks=["bitorsor-axioms"]))
    (check,) = report["checks"]
    assert code == 0 and check["passed"] and check["value"] == 0.0
    assert "witness: none" not in check["detail"]


def test_report_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_scenario(cfg("a2-example"), out_dir=str(a))
    run_scenario(cfg("a2-example"), out_dir=str(b))
    for fname in ("report.json", "spectra.csv", "summary.md"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        run_scenario(cfg("nope"))


def test_wrong_schema_version_rejected():
    with pytest.raises(ConfigError):
        run_scenario({"schema_version": 99, "scenario": "a2-example"})


def test_tolerance_loosening_needs_force():
    config = cfg("free-rotation-circle", params={"m": 2, "modes": 16})
    config["tolerances"] = {"spectra-match": 1e-3}
    with pytest.raises(ConfigError):
        run_scenario(config)
    code, report = run_scenario(config, force=True)
    assert code == 0


def test_tightening_is_allowed():
    config = cfg("noneffective-circle")
    config["tolerances"] = {"non-effectiveness": 0.0}
    code, report = run_scenario(config)
    assert code == 0


def test_registered_scenario_runs(tmp_path):
    path = tmp_path / "mine.json"
    path.write_text(
        json.dumps({"name": "a2-n5", "scenario": "a2-example", "params": {"N": 5}})
    )
    code, report = run_scenario(cfg("a2-n5"), registry_dir=str(tmp_path))
    assert code == 0 and report["params"]["N"] == 5


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_golden_bundle(name, tmp_path):
    """Every built-in at its default config reproduces its pinned bundle.

    The pinned files under tests/golden/<name>/ come from the same CLI
    command this test runs: ``orbikit --scenario <name> --out
    tests/golden/<name>``, with ``spectra.csv`` replaced by the
    ``sha256sum`` line in ``spectra.csv.sha256``.  Regenerating them is
    that command again; any regeneration has to be explained in
    CHANGES.md.
    """
    out = tmp_path / name
    assert cli_main(["--scenario", name, "--out", str(out)]) == 0
    for fname in ("report.json", "summary.md"):
        assert (out / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname
    digest = hashlib.sha256((out / "spectra.csv").read_bytes()).hexdigest()
    assert (GOLDEN / name / "spectra.csv.sha256").read_text() == f"{digest}  spectra.csv\n"


def test_cli_list_and_run(tmp_path, capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "a2-example" in out
    code = cli_main(["--scenario", "a2-example", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "overall: PASS" in out
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_bad_usage(capsys):
    assert cli_main([]) == 2
    assert cli_main(["--scenario", "nope"]) == 2


def test_cli_config_file(tmp_path):
    config = cfg("a2-example", params={"N": 3})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main(["--config", str(path)]) == 0


@pytest.mark.parametrize("modes", [8, 10, 12])
def test_free_rotation_z4_writes_a_report_at_small_cutoffs(modes, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg("free-rotation-circle", params={"m": 4, "modes": modes})))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["params"] == {"buffer": 2, "m": 4, "modes": modes}


def test_spectra_match_names_its_eigenvalue_floor():
    _, report = run_scenario(cfg("free-rotation-circle", modes=32, buffer=16, checks=["spectra-match"]))
    (check,) = report["checks"]
    assert not check["passed"] and check["value"] == 0.0
    assert "needs more than 4 eigenvalues" in check["detail"]


def test_empty_check_list_gives_empty_report():
    config = cfg("a2-example", checks=[])
    code, report = run_scenario(config)
    assert code == 0 and report["checks"] == [] and report["passed"]


def test_check_subset_runs_in_declared_order():
    config = cfg("a2-example", checks=["fibre-blocks", "bitorsor-axioms"])
    code, report = run_scenario(config)
    names = [c["name"] for c in report["checks"]]
    assert names == ["bitorsor-axioms", "fibre-blocks"]  # declared order wins
    assert code == 0


def test_unknown_check_name_rejected():
    with pytest.raises(ConfigError):
        run_scenario(cfg("a2-example", checks=["no-such-check"]))


@pytest.mark.parametrize(
    "config, argv, preset",
    [
        pytest.param(cfg("cech-localization", params={"N": 4}), [], None, id="cech-N-not-3"),
        pytest.param(cfg("a2-example", params={"N": "x"}), [], None, id="N-string"),
        pytest.param(cfg("a2-example", params={"N": 2.7}), [], None, id="N-float"),
        pytest.param(cfg("free-rotation-circle"), ["--modes", "4"], None, id="modes-below-floor"),
        pytest.param(cfg("free-rotation-circle"), ["--modes", "100000000"], None, id="modes-above-cap"),
        pytest.param(cfg("pillowcase-torus"), ["--modes", "129"], None, id="torus-modes-above-cap"),
        pytest.param(cfg("noneffective-circle"), ["--modes", "257"], None, id="noneffective-modes-above-cap"),
        pytest.param(cfg("a2-example", tolerances={"fibre-blocks": "0"}), [], None, id="string-tolerance"),
        pytest.param(cfg("a2-example", tolerances={"fibre-blocks": -1.0}), [], None, id="negative-tolerance"),
        pytest.param(cfg("a2-example", tolerances={"spectra-match": 1e-9}), [], None, id="tolerance-of-no-check"),
        pytest.param(cfg("a2-example"), ["--modes", "16"], None, id="modes-not-declared"),
        pytest.param(cfg("noneffective-circle"), ["--buffer", "2"], None, id="buffer-not-declared"),
        pytest.param(cfg("a2-example", params={"K": 1}), [], None, id="unknown-param"),
        pytest.param(cfg("a2-example", tolerance={"fibre-blocks": 0}), [], None, id="unknown-config-key"),
        pytest.param([cfg("a2-example")], ["--modes", "16"], None, id="config-not-object"),
        pytest.param(b"\xff\xfe{", [], None, id="config-not-utf8"),
        # a second --registry wins over the one every case gets
        pytest.param(cfg("a2-example"), ["--registry", "no-such-registry-dir"], None, id="registry-missing"),
        pytest.param(cfg("p"), [], {"name": "p", "params": {"N": 5}}, id="preset-without-scenario"),
        pytest.param(
            cfg("p"), [], {"name": "p", "scenario": "a2-example", "params": [5]}, id="preset-params-not-object"
        ),
    ],
)
def test_bad_input_exits_2(config, argv, preset, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config))
    registry = tmp_path / "registry"
    registry.mkdir()
    if preset is not None:
        (registry / "preset.json").write_text(json.dumps(preset))
    code = cli_main(["--config", str(path), "--registry", str(registry)] + argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: "), err


@pytest.mark.parametrize("argv", [["--list"], ["--scenario", "a2-example"]], ids=["list", "scenario"])
def test_registry_that_is_a_file_exits_2_naming_the_fault(argv, tmp_path, capsys):
    path = tmp_path / "registry.json"
    path.write_text("{}")
    code = cli_main(argv + ["--registry", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: registry {path} is not a directory\n", err


def test_out_dir_that_cannot_be_made_exits_2_before_the_checks(tmp_path, capsys, monkeypatch):
    def no_check(*args):
        raise AssertionError("a check ran before the report directory was made")

    monkeypatch.setattr(harness, "run_check", no_check)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = cli_main(["--scenario", "a2-example", "--out", str(blocker / "sub")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: cannot write report to {blocker / 'sub'}: "), err


def test_raising_check_becomes_failed_record(tmp_path):
    # the interior band is empty, so the growth fit has no levels to fit
    code, report = run_scenario(cfg("free-rotation-circle", modes=16, buffer=40), out_dir=str(tmp_path))
    assert code == 1 and not report["passed"]
    assert len(report["checks"]) == 9
    growth = report["checks"][-1]
    assert growth["name"] == "growth-exponent" and not growth["passed"]
    assert growth["error"].startswith("CatalogError: not enough distinct eigenvalue levels")
    # the empty band's infinite gap is a failed record, not a bare Infinity
    spectra = next(c for c in report["checks"] if c["name"] == "spectra-match")
    assert not spectra["passed"] and "value" not in spectra
    assert spectra["error"] == "non-finite value: inf"
    # the operators on the empty band are empty matrices, not a raise
    comm = next(c for c in report["checks"] if c["name"] == "convolution-commutators")
    assert not comm["passed"] and "error" not in comm
    assert comm["value"] == 3.0
    assert comm["detail"].endswith("the interior band couples no generator")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "report.json").read_text()
    assert json.loads(text, parse_constant=reject) == report
    assert "growth-exponent: error CatalogError" in (tmp_path / "summary.md").read_text()


@pytest.mark.parametrize("scenario, extra", [("free-rotation-circle", {"m": 2}), ("free-rotation-circle", {"m": 4}),
                                             ("pillowcase-torus", {})])
def test_thin_and_empty_bands_give_no_bare_exception(scenario, extra, tmp_path):
    """At every buffer from a full band to an empty one, a check that cannot
    be computed records a CatalogError or a non-finite value, never a numpy
    or Python exception of the code."""
    for modes in (8, 9, 10):
        for buffer in (0, modes - 1, modes, modes + 1, 2 * modes):
            params = dict(extra, modes=modes, buffer=buffer)
            _, report = run_scenario(cfg(scenario, params=params), out_dir=str(tmp_path / f"{modes}-{buffer}"))
            for check in report["checks"]:
                error = check.get("error", "")
                assert not error or error.startswith(("CatalogError: ", "non-finite value")), (params, error)
