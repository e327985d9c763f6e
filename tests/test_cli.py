import argparse
import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from kahlerlab import cli
from kahlerlab.cli import main

A_DIAG = [[[2, 0], [0, 0], [0, 0]],
          [[0, 0], [1, 0], [0, 0]],
          [[0, 0], [0, 0], [1, 0]]]


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "A.json"
    path.write_text(json.dumps(A_DIAG))
    return str(path)


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse uses sys.exit for usage errors
        return exc.code


def test_list_scenarios(capsys):
    assert _run([]) == 0
    out = capsys.readouterr().out
    names = [line.split(":")[0] for line in out.strip().split("\n")]
    assert "verify-kahler" in names and "mobility" in names
    assert names == sorted(names)
    assert _run(["list", "--json"]) == 0
    arr = json.loads(capsys.readouterr().out)
    assert isinstance(arr, list) and "hplanar" in arr


def test_unknown_flag_or_scenario_exit_2(capsys):
    assert _run(["verify-kahler", "--bogus-flag"]) == 2
    assert _run(["no-such-scenario"]) == 2
    assert _run(["mobility", "--model", "fs", "--n", "2", "--B", "bogus"]) == 2
    capsys.readouterr()


def test_verify_kahler_report_schema(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = _run(["verify-kahler", "--model", "flat", "--n", "2",
                 "--samples", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    for key in ("version", "scenario", "model", "seed", "checks", "artifacts"):
        assert key in rep
    assert rep["scenario"] == "verify-kahler"
    assert rep["model"]["kind"] == "flat"
    for c in rep["checks"]:
        assert set(c) == {"name", "max_residual", "tolerance", "pass"}
        assert c["pass"]
    capsys.readouterr()


def test_failing_check_exit_1(tmp_path, capsys):
    # curvature identity with the wrong constant must fail
    out = tmp_path / "rep.json"
    code = _run(["curvature", "--model", "fs", "--n", "2", "--B", "1.0",
                 "--samples", "3", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert any(c["name"] == "constant_holomorphic_curvature" for c in failing)
    capsys.readouterr()


def test_missing_matrix_file_exit_2(capsys):
    assert _run(["hpr-check", "--n", "2", "--A-file", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_deterministic_reports(tmp_path, a_file, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for out in (r1, r2):
        code = _run(["hpr-check", "--n", "2", "--A-file", a_file,
                     "--samples", "4", "--seed", "7", "--out", str(out)])
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    capsys.readouterr()


def test_mobility_cli_expect_dim(tmp_path, capsys):
    out = tmp_path / "mob.json"
    code = _run(["mobility", "--model", "torus", "--n", "2", "--B", "0",
                 "--expect-dim", "4", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["dimension"] == 4
    assert rep["mobility"]["scope"] == "local mobility estimate"
    capsys.readouterr()


def test_mobility_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = _run(["mobility", "--model", "torus", "--n", "2", "--B", "sweep",
                 "--step", "5e-3", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["B"] == 0.0
    assert rep["dimension"] == 4
    assert "sweep" in rep["mobility"]["warning"]
    assert code == 0
    capsys.readouterr()


def test_mobility_cli_sweep_finds_fs_constant(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = _run(["mobility", "--model", "fs", "--n", "2", "--B", "sweep",
                 "--out", str(out)])
    rep = json.loads(out.read_text())
    assert abs(rep["B"] + 0.25) <= 1e-9
    assert rep["dimension"] == 9
    assert all(c["pass"] for c in rep["checks"])     # rank_stabilized, kernel_reverify
    assert code == 0
    capsys.readouterr()


def test_report_merge(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    code = _run(["verify-kahler", "--model", "flat", "--n", "2",
                 "--samples", "3", "--out", str(r1)])
    assert code == 0
    r2 = tmp_path / "r2.json"
    code = _run(["verify-kahler", "--model", "torus", "--n", "2",
                 "--samples", "3", "--out", str(r2)])
    assert code == 0
    merged = tmp_path / "merged.json"
    assert _run(["report-merge", str(r1), str(r2), "--out", str(merged)]) == 0
    rep = json.loads(merged.read_text())
    assert len(rep["checks"]) == 8
    assert all(c["name"].startswith("verify-kahler.") for c in rep["checks"])
    capsys.readouterr()


def test_product_model_via_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "product", "n": 4,
                  "factors": [{"kind": "flat", "n": 2},
                              {"kind": "torus", "n": 2, "periods": 1.0}],
                  "weights": [1.0, 2.0]},
        "seed": 5}))
    out = tmp_path / "rep.json"
    # a flag beats the file, also as a prefix argparse accepts
    code = _run(["verify-kahler", "--config", str(cfg), "--samples", "3", "--se", "9",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["model"]["kind"] == "product"
    assert rep["seed"] == 9
    capsys.readouterr()


def test_hplanar_csv_artifacts(tmp_path, capsys):
    out = tmp_path / "rep.json"
    csvdir = tmp_path / "curves"
    code = _run(["hplanar", "--model", "flat", "--n", "2", "--samples", "2",
                 "--step", "5e-3", "--out", str(out), "--csv-dir", str(csvdir)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert len(rep["artifacts"]) == 2
    for path in rep["artifacts"]:
        header = open(path).readline().strip().split(",")
        assert header[:2] == ["t", "chart"]
    capsys.readouterr()


def test_hplanar_flat_order_ratio_all_seeds(tmp_path):
    # At step 4e-3 the ratio's finer endpoint difference on flat curves is
    # round-off at seeds such as 1, 3 and 5; the grown step measures the order.
    # --step only sets the main batch; the ratio curve is drawn as by default.
    for seed in range(1, 21):
        out = tmp_path / f"rep{seed}.json"
        assert _run(["hplanar", "--model", "flat", "--seed", str(seed), "--step", "5e-3",
                     "--out", str(out)]) == 0, seed
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert 12.0 <= checks["rk4_ratio_low"]["max_residual"] <= 20.0


@pytest.mark.parametrize("argv", [
    ["verify-kahler", "--samples", "0"],
    ["hplanar", "--model", "flat", "--samples", "0"],
    ["hpr-check", "--samples", "0"],
    ["mobility", "--model", "torus", "--B", "0", "--step", "-1"],
    ["verify-kahler", "--seed", "-3"],
])
def test_bad_samples_or_step_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "rep.json"
    assert _run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("configuration error:")


_FLAT = ["verify-kahler", "--model", "flat"]
_MODEL_KEY = {"product": "'factors'", "pullback": "'A'", "fs": "'n'"}


@pytest.mark.parametrize("cfg_values", [
    {"samples": 0}, {"samples": "3"}, {"step": -1.0}, {"step": "1e-3"},
    {"model": {"kind": "product", "n": 4}},                  # no factors
    {"model": {"kind": "pullback", "n": 2}},                 # no A
    {"model": {"kind": "fs", "n": "two"}},
    {"samples": True}, {"tol": True}, {"step": True}, {"verify_basis": True},
    {"verify_basis": 0}, {"seed": -3}, {"seed": "-3"}, {"seed": 1.5}, {"seed": True},
    {"seed": [1]},
])
def test_bad_samples_or_step_from_config_exit_2(tmp_path, capsys, cfg_values):
    # step and verify_basis are mobility's keys: verify-kahler refuses them
    # as keys it does not read, before any bound is reached; a config model
    # runs without --model, which it would refuse before reading the model
    key = next(iter(cfg_values))
    argv = (["mobility", "--model", "torus", "--B", "0"] if key in ("step", "verify_basis")
            else ["verify-kahler"] if key == "model" else _FLAT)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_values))
    out = tmp_path / "rep.json"
    assert _run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    if key == "model":       # the descriptor key that is missing or malformed
        assert _MODEL_KEY[cfg_values["model"]["kind"]] in err
    else:
        assert f"{key} must be" in err


def test_config_seed_string_is_parsed_as_the_flag(tmp_path, capsys):
    # argparse converts a string seed from a config; the bound sees the integer
    cfg = _write(tmp_path, "cfg.json", {"seed": "7"})
    by_config, by_flag = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(_FLAT + ["--samples", "2", "--config", cfg, "--out", str(by_config)]) == 0
    assert _run(_FLAT + ["--samples", "2", "--seed", "7", "--out", str(by_flag)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("model,message", [
    ({"kind": "product", "n": 4}, "needs the key 'factors'"),
    ({"kind": "pullback", "n": 2}, "needs the key 'A'"),
    ({"kind": "fs", "n": "two"}, "key 'n' is malformed"),
])
def test_malformed_config_model_exit_2(tmp_path, capsys, model, message):
    # the malformed models above, with no model flag next to them
    cfg = _write(tmp_path, "cfg.json", {"model": model})
    out = tmp_path / "rep.json"
    assert _run(["verify-kahler", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv,config,refused", [
    (["verify-kahler", "--model", "torus", "--n", "3", "--periods", "2"], {},
     "--model, --n, --periods"),
    (["verify-kahler", "--mod", "flat"], {}, "--model"),          # a prefix argparse accepts
    (["verify-kahler"], {"n": 3}, "--n"),                         # a config key alike
    (["curvature", "--chart-index", "1"], {}, "--chart-index"),
    (["mobility", "--B", "0", "--diag", "1", "2"], {}, "--diag"),
    (["verify-kahler", "--A-file", "A.json"], {}, "--A-file"),
    (["hplanar", "--A-file", "A.json"], {}, "--A-file"),          # flat: no Killing pair
], ids=["three_flags", "prefix", "config_key", "chart_index", "diag", "A_file",
        "hplanar_A_file"])
def test_model_flag_next_to_a_config_model_exit_2(tmp_path, capsys, a_file, argv, config,
                                                  refused):
    argv = [a_file if a == "A.json" else a for a in argv]
    cfg = _write(tmp_path, "cfg.json", {"model": {"kind": "flat", "n": 2}, **config})
    out = tmp_path / "rep.json"
    assert _run(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert err.rstrip().endswith(refused), err


def test_hplanar_reads_a_file_next_to_a_config_fs_model(tmp_path, capsys, a_file):
    cfg = _write(tmp_path, "cfg.json", {"model": {"kind": "fs", "n": 2}})
    out = tmp_path / "rep.json"
    assert _run(["hplanar", "--config", cfg, "--A-file", a_file, "--samples", "1",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["model"] == {"kind": "fs", "n": 2, "chart_index": 0}
    assert "killing_integral_drift" in {c["name"] for c in rep["checks"]}
    capsys.readouterr()


def test_workload_config_ops_keep_their_config_model(tmp_path, monkeypatch):
    wl = _perfbench_workloads()
    monkeypatch.chdir(tmp_path)
    for name, payload in wl.INPUT_FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    argvs = [argv for name in wl.WORKLOADS for argv, _ in wl.ops(name, 7) if "--config" in argv]
    assert argvs
    for argv in argvs:
        args = cli._parse(cli.build_parser(), argv)
        assert cli._apply_config(args, argv).model == wl.INPUT_FILES[args.config]["model"]


GOOD_CHECK = {"name": "c", "max_residual": 0.0, "tolerance": 1.0, "pass": True}


@pytest.mark.parametrize("content", [
    "[1, 2]", "not json", "{}", json.dumps({"checks": []}),
    json.dumps({"checks": GOOD_CHECK}), json.dumps({"checks": [3]}),
    *(json.dumps({"checks": [{k: v for k, v in GOOD_CHECK.items() if k != key}]})
      for key in GOOD_CHECK),
], ids=["list", "not_json", "empty", "no_checks", "checks_object", "record_not_object",
        *(f"no_{key}" for key in GOOD_CHECK)])
def test_report_merge_refuses_what_is_not_a_report(tmp_path, capsys, content):
    good = _write(tmp_path, "good.json", {"scenario": "x", "checks": [GOOD_CHECK]})
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = tmp_path / "merged.json"
    assert _run(["report-merge", good, str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err


def test_report_model_field_rebuilds_the_model(tmp_path, a_file, capsys):
    from kahlerlab.models import model_from_descriptor
    out = tmp_path / "rep.json"
    assert _run(["verify-kahler", "--model", "pullback", "--A-file", a_file,
                 "--chart-index", "1", "--samples", "2", "--out", str(out)]) == 0
    desc = json.loads(out.read_text())["model"]
    assert model_from_descriptor(desc).descriptor() == desc
    assert desc["chart_index"] == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify-kahler", "--model", "flat", "--n", "1"],
    ["verify-kahler", "--model", "flat", "--n", "2", "--diag", "1", "0"],
    ["mobility", "--model", "fs", "--n", "1", "--B", "-0.25"],
    ["hplanar", "--model", "pullback", "--A-file", "A.json", "--chart-index", "5"],
    ["verify-kahler", "--model", "pullback", "--A-file", "A.json", "--chart-index", "5"],
    # the pair scenarios pair fs with a pullback of it: other model input is refused
    ["hpr-check", "--model", "torus", "--samples", "2"],
    ["spectral", "--model", "flat", "--samples", "2"],
    ["tanno", "--diag", "1", "2", "--samples", "2"],
    ["hpr-check", "--periods", "2", "--samples", "2"],
])
def test_invalid_input_exit_2(tmp_path, capsys, a_file, argv):
    argv = [a_file if a == "A.json" else a for a in argv]
    out = tmp_path / "rep.json"
    assert _run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["torus", "two_tori"])
def test_hplanar_rejects_models_without_lines(tmp_path, capsys, monkeypatch, model):
    from kahlerlab import curves

    def integrate(*args, **kwargs):
        raise AssertionError("hplanar integrated curves on a model it cannot check")

    monkeypatch.setattr(curves, "integrate_hplanar_batch", integrate)
    if model == "torus":
        model_args = ["--model", "torus", "--n", "2"]
    else:
        cfg = tmp_path / "tori2.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "product", "n": 4,
                      "factors": [{"kind": "torus", "n": 2, "periods": 1.0},
                                  {"kind": "torus", "n": 2, "periods": 1.0}]}}))
        model_args = ["--config", str(cfg)]
    out = tmp_path / "rep.json"
    assert _run(["hplanar"] + model_args + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "no line notion" in err


def test_spectral_eigenspace_angle_at_complex_eigenvector_seed(tmp_path, capsys):
    # np.linalg.eig returns a complex-conjugate eigenvector pair for the
    # double eigenvalue 1 - mu at this seed's interior point
    a_file = tmp_path / "A.json"
    a_file.write_text(json.dumps([[[d if i == j else 0.0, 0.0] for j in range(4)]
                                  for i, d in enumerate([2.0, 1.0, 1.0, 0.5])]))
    out = tmp_path / "rep.json"
    code = _run(["spectral", "--n", "3", "--A-file", str(a_file), "--seed", "63704871",
                 "--out", str(out)])
    assert code == 0
    angle = next(c for c in json.loads(out.read_text())["checks"]
                 if c["name"] == "lambda_eigenspace_angle")
    assert angle["pass"]
    capsys.readouterr()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv,gap_is_null", [
    (["--model", "fs", "--n", "2", "--B", "-0.25"], True),   # full fiber: no rank cut
    (["--model", "fs", "--n", "2", "--B", "0"], False),      # a cut above transport error
    (["--model", "torus", "--n", "2", "--B", "0"], True),    # kernel exact to round-off
])
def test_mobility_reports_are_strict_json(argv, gap_is_null, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert _run(["mobility"] + argv + ["--seed", "3", "--out", str(out)]) == 0
    rep = _strict_json(out.read_text())
    assert (rep["mobility"]["gap"] is None) == gap_is_null
    capsys.readouterr()


def test_non_finite_check_is_null_and_fails():
    from kahlerlab.cli import check
    for value in (float("inf"), float("nan")):
        c = check("x", value, 1.0)
        assert c["max_residual"] is None and c["pass"] is False
        _strict_json(json.dumps(c, allow_nan=False))


def test_hplanar_integrates_once(tmp_path, a_file, monkeypatch, capsys):
    # Every curve hplanar checks (sampled curves, energy geodesic, the order
    # ladder, Killing geodesics) ticks in one lockstep batch: 1,000 ticks at
    # the default step, four geometry calls per tick and chart held.
    from kahlerlab import curves
    counts = {"rk4_step": 0, "_geo_floats_batch": 0}
    for name in counts:
        def counted(*args, _name=name, _orig=getattr(curves, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(curves, name, counted)
    assert _run(["hplanar", "--model", "fs", "--n", "2", "--A-file", a_file,
                 "--seed", "11", "--out", str(tmp_path / "rep.json")]) == 0
    assert counts["rk4_step"] <= 1000 and counts["_geo_floats_batch"] <= 4100, counts
    capsys.readouterr()


@pytest.mark.parametrize("a2,code", [([2, 1, 1], 1), ([1, 1, 1], 1), ([1, 3, 1], 0)],
                         ids=["A2-is-A", "A2-is-identity", "independent"])
def test_hpr_check_c_identity_needs_independent_solutions(tmp_path, a_file, capsys, a2, code):
    # With A2 = A, or A2 = 1 (gbar = g, the trivial solution), {g, a, A} are
    # dependent and the identity holds vacuously: c_identity is null and fails.
    a2_file = tmp_path / "A2.json"
    a2_file.write_text(json.dumps([[[d if i == j else 0, 0] for j in range(3)]
                                   for i, d in enumerate(a2)]))
    out = tmp_path / "rep.json"
    assert _run(["hpr-check", "--n", "2", "--A-file", a_file, "--A2-file", str(a2_file),
                 "--out", str(out)]) == code
    c = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "c_identity")
    assert c["pass"] == (code == 0) and (c["max_residual"] is None) == (code == 1)
    capsys.readouterr()


def test_spectral_without_interior_sample_fails_its_eigenstructure_checks(
        tmp_path, monkeypatch, capsys):
    # mu = 1 everywhere: no sample has 0.05 < mu < 0.95, so the three checks
    # read at an interior sample are written as null and fail
    from kahlerlab.spectral import PolynomialSolution
    orig = PolynomialSolution.mu_jet
    monkeypatch.setattr(PolynomialSolution, "mu_jet",
                        lambda self, point, order: orig(self, point, order) * 0.0 + 1.0)
    out = tmp_path / "rep.json"
    assert _run(["spectral", "--n", "2", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("eigenstructure_multiplicities", "lambda_eigenspace_angle", "hessian_mu"):
        assert checks[name]["max_residual"] is None and not checks[name]["pass"]
    capsys.readouterr()


def test_mobility_cli_fs4_full_fiber(tmp_path, capsys):
    # CP(4) at B = -1/4 has the full (n+1)^2 = 25-dimensional solution space
    out = tmp_path / "mob.json"
    assert _run(["mobility", "--model", "fs", "--n", "4", "--B", "-0.25",
                 "--expect-dim", "25", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dimension"] == 25
    capsys.readouterr()


@pytest.mark.parametrize("scenario", ["hpr-check", "spectral", "tanno"])
def test_pair_scenarios_refuse_a_config_model_exit_2(tmp_path, capsys, scenario):
    cfg = tmp_path / "tori3.json"
    torus = {"kind": "torus", "n": 2, "periods": 1.0}
    cfg.write_text(json.dumps({"model": {"kind": "product", "n": 6,
                                         "factors": [torus, torus, torus]}}))
    out = tmp_path / "rep.json"
    assert _run([scenario, "--config", str(cfg), "--samples", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("configuration error:")


A_DIAG211H = [[[d if i == j else 0, 0] for j in range(4)] for i, d in enumerate([2, 1, 1, 0.5])]


@pytest.fixture
def pair_ops(tmp_path):
    """The pair scenarios as the benchmark's residuals-order3 workload runs them."""
    path = tmp_path / "A_diag211h.json"
    path.write_text(json.dumps(A_DIAG211H))
    return [[name, "--n", "3", "--A-file", str(path)] for name in ("hpr-check", "spectral", "tanno")]


def test_pair_scenarios_build_the_a_jet_once_per_point(tmp_path, pair_ops, monkeypatch,
                                                        capsys):
    # a pair solution builds its a-jet at a point at the highest order asked so far
    # and truncates it for lower orders; each scenario asks a point's highest
    # order first, so its 20 sample points build it once each
    from kahlerlab import hproj
    builds = []
    orig = hproj.pair_a_jet
    monkeypatch.setattr(hproj, "pair_a_jet", lambda *a: builds.append(a[-1]) or orig(*a))
    for argv in pair_ops:
        builds.clear()
        assert _run(argv + ["--out", str(tmp_path / "rep.json")]) == 0
        assert len(builds) <= 20, (argv[0], len(builds))
    capsys.readouterr()


def test_flag_runs_share_one_parser_and_keep_no_config_default(tmp_path, monkeypatch,
                                                               capsys):
    from kahlerlab import cli
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda defaults=None: builds.append(defaults) or build(defaults))
    cli._flag_parser.cache_clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "samples": 2, "seed": 5}))
    assert _run(["verify-kahler", "--config", str(cfg), "--out", str(tmp_path / "a.json")]) == 0
    for k in range(2):
        out = tmp_path / f"b{k}.json"
        assert _run(["verify-kahler", "--samples", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["model"]["n"] == 2 and rep["seed"] == 0
    # one flag parser for the process, plus the config run's own
    assert builds == [None, {"n": 3, "samples": 2, "seed": 5}]
    capsys.readouterr()


def test_pair_reports_do_not_depend_on_the_geometry_memo(tmp_path, pair_ops, capsys):
    # three times in one process: each run builds its own models, whose
    # geometry memos start empty, and nothing a run leaves behind reaches the
    # next, so the report bytes are the same each time
    runs = []
    for k in range(3):
        reports = []
        for argv in pair_ops:
            out = tmp_path / f"{argv[0]}.{k}.json"
            assert _run(argv + ["--out", str(out)]) == 0
            reports.append(out.read_bytes())
        runs.append(reports)
    assert runs[0] == runs[1] == runs[2]
    capsys.readouterr()


# -- the flag table ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
# the 14 flags of the parser that every model scenario once shared
OLD_UNION = ["seed", "tol", "samples", "step", "out", "config", "model", "n", "chart_index",
             "diag", "periods", "A_file", "A2_file", "B"]


def _subparsers():
    """The parser of each subcommand, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _declared(name):
    return {a.dest for a in _subparsers()[name]._actions if a.dest != "help"}


def test_subparsers_hold_at_most_80_settable_values():
    assert sum(len(_declared(name)) for name in _subparsers()) <= 80


@pytest.fixture
def scenario_argvs(tmp_path, a_file):
    a2 = tmp_path / "A2.json"
    a2.write_text(json.dumps([[[d if i == j else 0, 0] for j in range(3)]
                              for i, d in enumerate([1, 3, 1])]))
    merged = tmp_path / "in.json"
    merged.write_text(json.dumps({"scenario": "x", "artifacts": [], "checks": [
        {"name": "c", "max_residual": 0.0, "tolerance": 1.0, "pass": True}]}))
    return {
        "verify-kahler": ["--model", "flat", "--samples", "1"],
        "curvature": ["--model", "flat", "--B", "0", "--samples", "1"],
        "hpr-check": ["--samples", "2", "--A-file", a_file, "--A2-file", str(a2),
                      "--dump-solution", str(tmp_path / "sol.json")],
        "mobility": ["--model", "torus", "--B", "0"],
        "spectral": ["--samples", "4"],
        "tanno": ["--samples", "2"],
        "hplanar": ["--model", "fs", "--A-file", a_file, "--samples", "1",
                    "--csv-dir", str(tmp_path / "csv")],
        "report-merge": [str(merged)],
    }


def test_each_scenario_reads_every_flag_it_declares(tmp_path, scenario_argvs, monkeypatch,
                                                    capsys):
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse = cli._parse
    monkeypatch.setattr(cli, "_parse", lambda parser, argv: Recording(**vars(parse(parser, argv))))
    assert set(scenario_argvs) == set(cli.SCENARIOS)
    for scenario, argv in scenario_argvs.items():
        reads.clear()
        out = tmp_path / f"{scenario}.json"
        assert _run([scenario] + argv + ["--out", str(out)]) in (0, 1), scenario
        assert _declared(scenario) - {"scenario"} <= reads, (scenario, _declared(scenario) - reads)
    # hplanar on fs reads --A-file as its Killing pair
    checks = json.loads((tmp_path / "hplanar.json").read_text())["checks"]
    assert "killing_integral_drift" in {c["name"] for c in checks}
    assert json.loads((tmp_path / "report-merge.json").read_text())["seed"] is None
    capsys.readouterr()


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_undeclared_flags_exit_2(tmp_path, capsys, scenario):
    out = tmp_path / "rep.json"
    head = [scenario] + (["in.json"] if scenario == "report-merge" else [])
    for dest in sorted(set(OLD_UNION) - _declared(scenario)):
        flag = "--" + dest.replace("_", "-")
        assert _run(head + [flag, "1", "--out", str(out)]) == 2, (scenario, flag)
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert flag in err


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("argv,config,prefix", [
    (["mobility", "--tol", "1e-300", "--samples", "999"], None, "usage"),
    (["verify-kahler", "--step", "7", "--B", "3", "--A2-file", "/nonexistent"], None, "usage"),
    (["report-merge", "v.json", "--config", "/nonexistent.json"], None, "usage"),
    (["curvature", "--tol", "0"], None, "configuration"),
    (["curvature", "--B", "sweep"], None, "usage"),
    (["verify-kahler", "--model", "flat", "--periods", "3", "--chart-index", "1",
      "--A-file", "A.json"], None, "configuration"),
    (["verify-kahler"], {"model": {"kind": "torus", "n": 2, "period": 0.5}}, "configuration"),
    (["verify-kahler", "--model", "pullback", "--n", "4", "--A-file", "A.json"], None,
     "configuration"),
    (["hpr-check", "--n", "3", "--A-file", "A.json"], None, "configuration"),
    (["mobility", "--model", "fs", "--A-file", "A.json", "--B", "-0.25"], None, "configuration"),
    (["mobility", "--model", "fs", "--n", "2", "--B", "-0.25", "--verify-basis", "0"], None,
     "configuration"),
    (["mobility", "--model", "fs", "--n", "2", "--B", "-0.25", "--verify-basis", "-1"], None,
     "configuration"),
    (["hpr-check", "--tol=-1e-7"], None, "configuration"),
    (["tanno", "--tol", "nan"], None, "configuration"),
    (["verify-kahler"], {"tol": 0}, "configuration"),
    (["hplanar", "--model", "flat", "--samples", "11"], None, "configuration"),
    (["hplanar", "--model", "flat"], {"samples": 20}, "configuration"),
    (["spectral", "--samples", "3"], None, "configuration"),
    (["mobility", "--model", "torus", "--B", "0"], {"samples": 5}, "configuration"),
    (["tanno"], {"model": "fs"}, "configuration"),
    (["verify-kahler"], {"model": {"kind": "product", "n": 5,
                                   "factors": [{"kind": "flat"}, {"kind": "flat"}]}},
     "configuration"),
])
def test_ignored_or_out_of_range_input_exit_2(tmp_path, capsys, a_file, argv, config, prefix):
    argv = [a_file if a == "A.json" else a for a in argv]
    if config is not None:
        argv += ["--config", _write(tmp_path, "cfg.json", config)]
    out = tmp_path / "rep.json"
    assert _run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix} error:") and err.count("\n") == 1, err


def test_a_config_key_is_named_when_refused(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"seed": 1, "smaples": 3})
    assert _run(["verify-kahler", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "'smaples'" in capsys.readouterr().err


def test_a_given_tol_is_used_as_given(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert _run(["curvature", "--model", "flat", "--B", "0", "--samples", "1",
                 "--tol", "1e-3", "--out", str(out)]) == 0
    assert {c["tolerance"] for c in json.loads(out.read_text())["checks"]} == {1e-3}
    capsys.readouterr()


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.strip().splitlines()]


def test_benchmark_and_readme_command_lines_parse():
    wl = _perfbench_workloads()
    argvs = [argv for name in list(wl.WORKLOADS) + ["probe"] for argv, _ in wl.ops(name, 7)]
    for argv in argvs + _readme_cli_lines():
        args = cli._parse(cli.build_parser(), argv)
        config = getattr(args, "config", None)
        if config is not None:      # the input file's keys are the scenario's flags too
            assert set(wl.INPUT_FILES[config]) <= set(vars(args)) - {"scenario", "config"}
    assert len(_readme_cli_lines()) >= 10
