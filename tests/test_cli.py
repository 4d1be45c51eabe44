"""End-to-end CLI contract: subcommands, artifacts, manifests, exit codes.

A single desk-scale pipeline (synth -> tofc -> beamform -> infer ->
prune -> quantize -> metrics -> compare) runs once into a module tmp
dir; the tests assert on its artifacts. Error-path tests run their own
short invocations.
"""

import csv
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from capsbeam import __version__, capsnet, cli
from capsbeam.config import load_config
from capsbeam.data_model import (
    Tensor,
    read_bundle_file,
    read_tensor_file,
    write_bundle_file,
    write_tensor_file,
)

DESK = "configs/desk.ini"
DEFAULT = "configs/default.ini"

MANIFEST_LINE = re.compile(
    rf"^[A-Za-z0-9_.]+\tsha256:[0-9a-f]{{12}}\tcapsbeam/{re.escape(__version__)}"
    rf"\tconfig:[0-9a-f]{{12}}$"
)


def _run(args):
    rc = cli.main(args)
    assert rc == 0, f"capsbeam {' '.join(args)} -> exit {rc}"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("deskrun")
    cfg = load_config(DESK)

    synth = root / "synth"
    _run(["synth", "--config", DESK, "--out", str(synth)])

    rf = root / "rf"
    for i in range(5):
        _run(["tofc", "--config", DESK, "--in", str(synth / f"rx_angle{i}.cbtf"),
              "--angle-index", str(i), "--out", str(rf)])

    bf_das = root / "bf_das"
    _run(["beamform", "--config", DESK, "--method", "das",
          "--in", str(rf / "rf_angle2.cbtf"), "--out", str(bf_das)])
    bf_mvdr = root / "bf_mvdr"
    _run(["beamform", "--config", DESK, "--method", "mvdr",
          "--in", str(rf / "rf_angle2.cbtf"), "--out", str(bf_mvdr)])
    bf_comp = root / "bf_comp"
    all_rf = ",".join(str(rf / f"rf_angle{i}.cbtf") for i in range(5))
    _run(["beamform", "--config", DESK, "--method", "compound",
          "--in", all_rf, "--out", str(bf_comp)])

    weights = root / "weights.cbwb"
    write_bundle_file(capsnet.init_weights(cfg.capsnet, seed=1234), str(weights))

    infer = root / "infer"
    _run(["infer", "--config", DESK, "--in", str(rf / "rf_angle2.cbtf"),
          "--weights", str(weights), "--out", str(infer)])

    prune = root / "prune"
    _run(["prune", "--config", DESK, "--weights", str(weights),
          "--ratio", "0.5", "--out", str(prune)])

    quant = root / "quant"
    _run(["quantize", "--config", DESK, "--weights", str(weights),
          "--rf", str(rf / "rf_angle2.cbtf"), "--out", str(quant)])

    inferq = root / "inferq"
    _run(["infer", "--config", DESK, "--in", str(rf / "rf_angle2.cbtf"),
          "--weights", str(quant / "quantized.cbwb"), "--quantized",
          "--out", str(inferq)])

    met_a = root / "met_a"
    _run(["metrics", "--config", DESK, "--env", str(bf_das / "das_env.cbtf"),
          "--out", str(met_a)])
    met_b = root / "met_b"
    _run(["metrics", "--config", DESK, "--env", str(bf_das / "das_env.cbtf"),
          "--out", str(met_b)])
    cmp_dir = root / "cmp"
    _run(["compare", "--a", str(met_a), "--b", str(met_b), "--out", str(cmp_dir)])

    return {"root": root, "cfg": cfg, "synth": synth, "rf": rf, "bf_das": bf_das,
            "bf_mvdr": bf_mvdr, "bf_comp": bf_comp, "weights": weights,
            "infer": infer, "prune": prune, "quant": quant, "inferq": inferq,
            "met_a": met_a, "cmp": cmp_dir}


# ----------------------------------------------------------------- artifacts


def test_synth_artifacts(desk_run):
    synth = desk_run["synth"]
    names = sorted(p.name for p in synth.iterdir())
    assert names == ["manifest.txt", "rx_angle0.cbtf", "rx_angle1.cbtf",
                     "rx_angle2.cbtf", "rx_angle3.cbtf", "rx_angle4.cbtf",
                     "scatterers.csv"]
    header = (synth / "scatterers.csv").read_text().splitlines()[0]
    assert header == "x_m,z_m,amplitude"


def test_manifest_line_format(desk_run):
    lines = (desk_run["synth"] / "manifest.txt").read_text().splitlines()
    assert len(lines) == 6  # csv + five rx tensors
    for line in lines:
        assert MANIFEST_LINE.match(line), line
    # the config hash column matches the parsed config
    assert lines[0].endswith(f"config:{desk_run['cfg'].config_hash}")


def test_manifest_appends_across_invocations(desk_run):
    lines = (desk_run["rf"] / "manifest.txt").read_text().splitlines()
    assert [l.split("\t")[0] for l in lines] == [
        f"rf_angle{i}.cbtf" for i in range(5)]


def test_beamform_file_contract(desk_run):
    bf = desk_run["bf_das"]
    assert sorted(p.name for p in bf.iterdir()) == [
        "das.cbtf", "das.pgm", "das_env.cbtf", "manifest.txt"]
    pgm = (bf / "das.pgm").read_bytes()
    assert pgm.startswith(b"P5\n16 16\n255\n")
    assert len(pgm) == len(b"P5\n16 16\n255\n") + 16 * 16


def test_envelope_tensor_shape(desk_run):
    from capsbeam.data_model import read_tensor_file
    t = read_tensor_file(str(desk_run["bf_das"] / "das_env.cbtf"))
    assert t.dims == (16, 16, 2)
    assert t.data.dtype == np.float32


def test_mvdr_and_compound_outputs(desk_run):
    assert (desk_run["bf_mvdr"] / "mvdr.pgm").exists()
    assert (desk_run["bf_comp"] / "compound.pgm").exists()
    assert (desk_run["bf_comp"] / "compound_env.cbtf").exists()


def test_infer_outputs(desk_run):
    infer = desk_run["infer"]
    assert (infer / "capsnet_env.cbtf").exists()
    assert (infer / "capsnet.pgm").exists()
    assert not (infer / "capsnet.cbtf").exists()  # no pre-envelope image
    inferq = desk_run["inferq"]
    assert (inferq / "capsnet_q_env.cbtf").exists()
    assert (inferq / "capsnet_q.pgm").exists()


def test_prune_outputs(desk_run):
    rows = {r["field"]: r["value"] for r in
            csv.DictReader((desk_run["prune"] / "prune_report.csv").open())}
    assert float(rows["ratio_requested"]) == 0.5
    assert 0.0 <= float(rows["ratio_achieved"]) <= 1.0
    assert int(rows["params_after"]) < int(rows["params_before"])
    assert (desk_run["prune"] / "pruned.cbwb").exists()


def test_quantize_outputs(desk_run):
    rows = list(csv.DictReader(
        (desk_run["quant"] / "quant_report.csv").open()))
    names = {r["tensor"] for r in rows}
    assert any(n.endswith(".w") or "conv0" in n for n in names)
    for r in rows:
        assert 0 <= int(r["scale_exp"]) <= 15
    assert (desk_run["quant"] / "quantized.cbwb").exists()


def test_metrics_csv_rows(desk_run):
    rows = list(csv.DictReader((desk_run["met_a"] / "metrics.csv").open()))
    assert [r["metric"] for r in rows] == ["cr", "cnr", "gcnr"]
    assert [r["unit"] for r in rows] == ["dB", "ratio", "fraction"]
    assert all(r["regions"] == "cyst|background" for r in rows)
    g = float(rows[2]["value"])
    assert 0.0 <= g <= 1.0


def test_compare_identical_runs_zero_delta(desk_run):
    rows = list(csv.DictReader((desk_run["cmp"] / "compare.csv").open()))
    assert len(rows) == 3
    for r in rows:
        assert float(r["delta"]) == 0.0
        assert float(r["a"]) == float(r["b"])


# ----------------------------------------------------------------- determinism


def test_synth_deterministic_and_seed_override(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _run(["synth", "--config", DESK, "--out", str(a)])
    _run(["synth", "--config", DESK, "--out", str(b)])
    _run(["synth", "--config", DESK, "--seed", "99", "--out", str(c)])
    for name in ["scatterers.csv"] + [f"rx_angle{i}.cbtf" for i in range(5)]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "scatterers.csv").read_bytes() != (c / "scatterers.csv").read_bytes()
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()


def test_rerun_into_same_dir_replaces_manifest_lines(tmp_path):
    _run(["synth", "--config", DESK, "--out", str(tmp_path)])
    first = (tmp_path / "manifest.txt").read_bytes()
    _run(["synth", "--config", DESK, "--out", str(tmp_path)])
    assert (tmp_path / "manifest.txt").read_bytes() == first
    lines = first.decode().splitlines()
    names = [line.split("\t")[0] for line in lines]
    assert sorted(names) == sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.txt")
    # Another seed rewrites every file: each line is replaced in place.
    _run(["synth", "--config", DESK, "--seed", "99", "--out", str(tmp_path)])
    reseeded = (tmp_path / "manifest.txt").read_text().splitlines()
    assert [line.split("\t")[0] for line in reseeded] == names
    assert not set(reseeded) & set(lines)


# ----------------------------------------------------------------- sim command


def test_sim_full_conv_reload_stdout(tmp_path, capsys):
    _run(["sim", "--config", DEFAULT, "--layer", "conv1",
          "--policy", "reload_per_block", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "external_word_transactions=60293120" in out
    csv_text = (tmp_path / "sim_report.csv").read_text()
    assert csv_text.splitlines()[1].startswith("conv1,60293120,")
    assert (tmp_path / "sim_report.txt").exists()


def test_sim_layer_names_are_one_based(tmp_path, capsys):
    # desk config has two conv layers: conv1/conv2 valid, conv0/conv3 not
    ok = cli.main(["sim", "--config", DESK, "--layer", "conv2",
                   "--out", str(tmp_path / "ok")])
    assert ok == 0
    capsys.readouterr()
    for bad in ("conv0", "conv3", "pool1"):
        rc = cli.main(["sim", "--config", DESK, "--layer", bad,
                       "--out", str(tmp_path / bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err
        assert "(conv1, conv2, caps1, caps2, fc1, fc2, fc3, fc4, routing)" in err


def test_sim_all_layers_and_pruned(tmp_path, capsys):
    _run(["sim", "--config", DESK, "--layer", "all", "--out", str(tmp_path / "f")])
    full = capsys.readouterr().out
    _run(["sim", "--config", DESK, "--layer", "all", "--pruned",
          "--out", str(tmp_path / "p")])
    pruned = capsys.readouterr().out
    tx = lambda s: int(s.splitlines()[0].split("=")[1])
    assert tx(pruned) < tx(full)
    rows = (tmp_path / "f" / "sim_report.csv").read_text().splitlines()
    assert rows[0] == "layer,transactions,compute_cycles,stall_cycles,cycles,ops,bram_bytes"
    assert rows[-1].startswith("total,")


# ----------------------------------------------------------------- point depth


def test_metrics_point_depth_fwhm(tmp_path):
    cfg = load_config(DESK)
    rng = np.random.default_rng(5)
    mag = 0.001 * rng.uniform(0.5, 1.0, size=(16, 16)).astype(np.float32)
    cols = np.arange(16, dtype=np.float64)
    mag[8] += np.exp(-((cols - 7.0) ** 2) / (2 * 1.5**2)).astype(np.float32)
    env = np.stack([mag, np.zeros_like(mag)], axis=-1)
    env_path = tmp_path / "env.cbtf"
    write_tensor_file(Tensor.from_array(env), str(env_path))
    _run(["metrics", "--config", DESK, "--env", str(env_path),
          "--point-depth", "5.8e-3", "--out", str(tmp_path / "m")])
    rows = {r["metric"]: r for r in
            csv.DictReader((tmp_path / "m" / "metrics.csv").open())}
    key = [k for k in rows if k.startswith("lateral_fwhm@")]
    assert key == ["lateral_fwhm@0.0058"]
    width = float(rows[key[0]]["value"])
    expected = 2.3548200450309493 * 1.5 * cfg.grid.col_spacing_m
    assert abs(width - expected) < 0.05 * expected
    assert rows[key[0]]["unit"] == "m"


@pytest.mark.parametrize("depth", ["1.0", "nan", "-5"])
def test_metrics_point_depth_outside_grid_exits_one(desk_run, tmp_path, capsys, depth):
    rc = cli.main(["metrics", "--config", DESK, "--env",
                   str(desk_run["bf_das"] / "das_env.cbtf"),
                   "--point-depth", depth, "--out", str(tmp_path / "m")])
    assert rc == 1
    assert "DepthOutOfRange" in capsys.readouterr().err


def test_report_rejects_bad_prune_ratio_before_any_work(tmp_path, capsys):
    desk = Path(DESK).read_text()
    assert "ratio = 0.5" in desk
    cfg = tmp_path / "bad_ratio.ini"
    cfg.write_text(desk.replace("ratio = 0.5", "ratio = 1.5"))
    out = tmp_path / "r"
    rc = cli.main(["report", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "RatioOutOfRange" in capsys.readouterr().err
    assert not (out / "rx_angle0.cbtf").exists()


def test_report_rejects_zero_lookahead_before_any_work(tmp_path, capsys):
    desk = Path(DESK).read_text()
    assert "method = lakp_ml" in desk and "lookahead = 2" in desk
    cfg = tmp_path / "bad_lookahead.ini"
    cfg.write_text(desk.replace("lookahead = 2", "lookahead = 0"))
    out = tmp_path / "r"
    rc = cli.main(["report", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "[prune] lookahead" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# ----------------------------------------------------------------- prune search


def test_prune_search_gates(tmp_path, capsys):
    cfg = load_config(DESK)
    weights = tmp_path / "w.cbwb"
    write_bundle_file(capsnet.init_weights(cfg.capsnet, seed=7), str(weights))
    rf = tmp_path / "rf.cbtf"
    rng = np.random.default_rng(11)
    write_tensor_file(
        Tensor.from_array(rng.normal(scale=0.25, size=(16, 16, 8)).astype(np.float32)),
        str(rf))

    ok_dir = tmp_path / "ok"
    _run(["prune", "--config", DESK, "--weights", str(weights),
          "--search", "0.25,0.5", "--in", str(rf), "--min-cr", "-1000.0",
          "--out", str(ok_dir)])
    rows = list(csv.DictReader((ok_dir / "search_report.csv").open()))
    assert [r["ratio_requested"] for r in rows] == ["0.25", "0.5"]
    assert all(r["passes_gates"] == "1" for r in rows)
    assert (ok_dir / "pruned.cbwb").exists()

    fail_dir = tmp_path / "fail"
    rc = cli.main(["prune", "--config", DESK, "--weights", str(weights),
                   "--search", "0.25", "--in", str(rf), "--min-cr", "1000.0",
                   "--out", str(fail_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no searched ratio met the quality gates" in err
    assert (fail_dir / "search_report.csv").exists()  # evidence still written
    assert not (fail_dir / "pruned.cbwb").exists()

    rc = cli.main(["prune", "--config", DESK, "--weights", str(weights),
                   "--search", "0.25", "--in", str(rf), "--out", str(tmp_path / "g")])
    assert rc == 1  # search without any gate
    rc = cli.main(["prune", "--config", DESK, "--weights", str(weights),
                   "--search", "0.25", "--min-cr", "0.0", "--out", str(tmp_path / "h")])
    assert rc == 1  # search without --in
    capsys.readouterr()


@pytest.mark.parametrize("search, message", [
    ("0.5,abc", "--search: not a number: 'abc'"),
    (",", "--search: empty list"),
    ("", "--search: empty list"),
])
def test_prune_search_rejects_a_bad_list_before_pruning(tmp_path, capsys, search, message):
    cfg = load_config(DESK)
    weights = tmp_path / "w.cbwb"
    write_bundle_file(capsnet.init_weights(cfg.capsnet, seed=7), str(weights))
    out = tmp_path / "out"
    rc = cli.main(["prune", "--config", DESK, "--weights", str(weights), "--search", search,
                   "--min-cr", "0.0", "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------- exit codes


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["beamform", "--method", "fft", "--in", "x", "--out", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth"])  # --out is required
    assert exc.value.code == 2
    capsys.readouterr()


def test_prune_search_with_ratio_is_a_usage_error(tmp_path, capsys):
    # --search picks its own ratio, so a --ratio beside it would be ignored.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["prune", "--config", DESK, "--weights", str(tmp_path / "w.cbwb"),
                  "--search", "0.25", "--ratio", "0.5", "--min-cr", "0.0",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_errors_exit_one(tmp_path, capsys):
    rc = cli.main(["tofc", "--config", DESK, "--in", str(tmp_path / "nope.cbtf"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[probe]\nnum_element = 8\n")
    rc = cli.main(["synth", "--config", str(bad_cfg), "--out", str(tmp_path / "o2")])
    assert rc == 1
    assert "InvalidConfig" in capsys.readouterr().err


def test_infer_rejects_non_finite_rf(desk_run, tmp_path, capsys):
    rf = read_tensor_file(str(desk_run["rf"] / "rf_angle2.cbtf")).data.copy()
    rf[1, 2, 0] = np.nan
    path = tmp_path / "nan.cbtf"
    write_tensor_file(Tensor.from_array(rf), str(path))
    rc = cli.main(["infer", "--config", DESK, "--in", str(path),
                   "--weights", str(desk_run["weights"]), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "NonFinite" in capsys.readouterr().err


def test_non_finite_weights_and_envelope_exit_one(desk_run, tmp_path, capsys):
    bundle = read_bundle_file(str(desk_run["weights"]))
    w = bundle.entries["conv1.weight"].data.copy()
    w[0, 0, 0, 0] = np.nan
    bundle.entries["conv1.weight"] = Tensor.from_array(w)
    weights = tmp_path / "nan.cbwb"
    write_bundle_file(bundle, str(weights))
    rc = cli.main(["infer", "--config", DESK, "--in", str(desk_run["rf"] / "rf_angle2.cbtf"),
                   "--weights", str(weights), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "NonFinite" in capsys.readouterr().err

    env = read_tensor_file(str(desk_run["bf_das"] / "das_env.cbtf")).data.copy()
    env[3, 4, 1] = np.inf
    env_path = tmp_path / "inf_env.cbtf"
    write_tensor_file(Tensor.from_array(env), str(env_path))
    rc = cli.main(["metrics", "--config", DESK, "--env", str(env_path),
                   "--out", str(tmp_path / "m")])
    assert rc == 1
    assert "NonFinite" in capsys.readouterr().err


def test_tofc_angle_index_checked(desk_run, tmp_path, capsys):
    rc = cli.main(["tofc", "--config", DESK,
                   "--in", str(desk_run["synth"] / "rx_angle0.cbtf"),
                   "--angle-index", "9", "--out", str(tmp_path)])
    assert rc == 1
    assert "angle-index" in capsys.readouterr().err


def test_compare_mismatched_rows_fail(desk_run, tmp_path, capsys):
    env = desk_run["bf_das"] / "das_env.cbtf"
    extra = tmp_path / "extra"
    _run(["metrics", "--config", DESK, "--env", str(env),
          "--point-depth", "5.8e-3", "--out", str(extra)])
    rc = cli.main(["compare", "--a", str(desk_run["met_a"]), "--b", str(extra),
                   "--out", str(tmp_path / "c")])
    assert rc == 1
    assert "RegionMismatch" in capsys.readouterr().err
    rc = cli.main(["compare", "--a", str(tmp_path / "void"), "--b", str(extra),
                   "--out", str(tmp_path / "c2")])
    assert rc == 1
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert f"capsbeam {__version__}" in capsys.readouterr().out


# ----------------------------------------------------------------- report


def test_report_pipeline(tmp_path):
    out = tmp_path / "report"
    _run(["report", "--config", DESK, "--out", str(out)])
    text = (out / "report.txt").read_text()
    assert text.startswith(f"capsbeam {__version__} pipeline report")
    for key in ("params=", "flops=", "prune_ratio_achieved=",
                "latency_nonopt_s=", "latency_opt_s="):
        assert key in text
    # desk config enables quantization, so the fixed-point image is present
    for name in ("das.pgm", "mvdr.pgm", "compound.pgm", "capsnet.pgm",
                 "capsnet_q.pgm", "weights.cbwb", "pruned.cbwb",
                 "quantized.cbwb", "sim_nonopt.csv", "sim_opt.csv"):
        assert (out / name).exists(), name
    for stem in ("das", "mvdr", "compound", "capsnet", "capsnet_q"):
        assert (out / f"metrics_{stem}" / "metrics.csv").exists()
    assert f"capsnet.gcnr=" in text
    # Each file is hashed as it is written, never read back: every manifest
    # digest must still be the sha256 of the bytes on disk.
    for manifest in out.rglob("manifest.txt"):
        for line in manifest.read_text().splitlines():
            name, digest = line.split("\t")[:2]
            data = (manifest.parent / name).read_bytes()
            assert digest == "sha256:" + hashlib.sha256(data).hexdigest()[:12], name
    assert read_tensor_file(out / "rf_angle2.cbtf").tobytes() == (out / "rf_angle2.cbtf").read_bytes()


def test_report_walks_the_float_network_once(tmp_path, monkeypatch):
    # desk.ini enables quantization: the float infer's trace calibrates the
    # fixed-point path, so the float walk runs once, not a second time in
    # calibrate. The fixed-point walk runs once too.
    walks = []
    real = capsnet.walk

    def counted(rf, cfg, arith, trace=None):
        walks.append(type(arith).__name__)
        return real(rf, cfg, arith, trace)

    monkeypatch.setattr(capsnet, "walk", counted)
    _run(["report", "--config", DESK, "--out", str(tmp_path / "report")])
    assert walks == ["_FloatArith", "_FixedArith"]


def test_report_peak_memory_does_not_grow_with_the_angle_count(tmp_path, monkeypatch):
    # desk.ini widened to 32 channels on a 32 x 32 grid, [quant] off: one ToF
    # volume takes 128 KB. report keeps only the centre volume past its
    # angle, so 9 angles may trace a higher peak than 5 only by their 4 more
    # 8 KB DAS images (and compound's stack of them), not by 4 more volumes.
    # A 1-angle run first loads what the first report in a process loads.
    import gc
    import tracemalloc

    text = Path(DESK).read_text()
    for old, new in (("num_elements = 8", "num_elements = 32"),
                     ("conv = 3x3:8->8:relu", "conv = 3x3:32->8:relu"),
                     ("num_rows = 16", "num_rows = 32"), ("num_cols = 16", "num_cols = 32"),
                     ("enabled = true", "enabled = false")):
        assert old in text
        text = text.replace(old, new)
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    peaks = []
    for angles in ("0", "-0.86, -0.43, 0, 0.43, 0.86",
                   "-1.72, -1.29, -0.86, -0.43, 0, 0.43, 0.86, 1.29, 1.72"):
        config = tmp_path / f"angles{len(peaks)}.ini"
        config.write_text(re.sub(r"angles_deg = .*", f"angles_deg = {angles}", text))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            _run(["report", "--config", str(config), "--out", str(tmp_path / config.stem)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
    assert abs(peaks[2] - peaks[1]) < 32 * 32 * 32 * 4, peaks
