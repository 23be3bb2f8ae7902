import numpy as np
import pytest

from porechem import cell_problems
from porechem.cell_problems import read_tensor_csv
from porechem.cli import main
from porechem.config import parse_config
from porechem.errors import ConfigError
from porechem.gridio import read_csv, read_field, write_field

MINIMAL = """
[geometry]
eps = 0.25
n = 8
hole_side = 0.5
"""


def test_minimal_config_resolves_defaults(tmp_path):
    cfg = parse_config(MINIMAL)
    assert cfg.eps == 0.25
    assert cfg.cell.n == 8
    assert cfg.rate_law.u_sol == 1.0
    out = tmp_path / "resolved_config.ini"
    cfg.write_resolved(out)
    text = out.read_text()
    # every defaulted key is echoed
    for key in ("u_onset", "resolution_mode", "dt", "eps_list", "dump_fields"):
        assert key in text
    # resolved config parses back to the same values
    cfg2 = parse_config(str(out))
    assert cfg2.raw == cfg.raw


def test_bad_eps():
    with pytest.raises(ConfigError, match="1/eps"):
        parse_config(MINIMAL.replace("eps = 0.25", "eps = 0.3"))


def test_kinetic_bound_violation():
    bad = MINIMAL + "\n[micro]\ndt = 2.0\nt_end = 2.0\n"
    with pytest.raises(ConfigError, match="dt\\*k\\*L_r"):
        parse_config(bad)


def test_unknown_key_lists_valid():
    bad = MINIMAL + "\n[kinetics]\nuu_onset = 1\n"
    with pytest.raises(ConfigError, match="valid keys"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="valid sections"):
        parse_config(MINIMAL + "\n[chemistry]\nx = 1\n")


def test_misaligned_geometry_error():
    with pytest.raises(Exception, match="off-grid"):
        parse_config(MINIMAL.replace("n = 8", "n = 6"))


def test_init_profile_parsing():
    cfg = parse_config(MINIMAL + "\n[micro]\nu_init = bump:0.5\n")
    mc = cfg.micro_config()
    assert callable(mc.u_init)
    assert mc.u_init(0.5, 0.5) == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[micro]\nu_init = wavelet:0.5\n")


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.random((6, 4))
    mask = vals > 0.3
    path = tmp_path / "f.txt"
    write_field(path, vals, 0.25, mask)
    back, h, back_mask = read_field(path)
    assert h == 0.25
    assert np.array_equal(back_mask, mask)
    assert np.array_equal(back[mask], vals[mask])


def _write_cfg(tmp_path, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(
        MINIMAL
        + """
[micro]
dt = 0.01
t_end = 0.1
output_every = 5
v_init = constant:0.05

[macro]
dt = 0.01
t_end = 0.1
output_every = 5
resolution = 16
v_init = constant:0.05

[sweep]
eps_list = 0.5, 0.25
"""
        + extra
    )
    return path


def test_cli_cell(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    cols, rows = read_csv(out / "effective_tensors.csv")
    assert rows[0]["spd_s"] == 1.0
    assert rows[0]["spd_k"] == 1.0
    assert rows[0]["s11"] == rows[0]["s22"]
    assert (out / "resolved_config.ini").exists()
    assert (out / "run_manifest.txt").exists()


def test_cli_micro_macro_unfold(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["macro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["unfold", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "micro_series.csv").exists()
    assert (out / "macro_series.csv").exists()
    vals, h, mask = read_field(out / "u_00000.txt")
    assert vals.shape == (32, 32)
    assert mask.sum() == 32 * 32 * 3 // 4  # fluid fraction 0.75
    _, rows = read_csv(out / "micro_series.csv")
    assert rows[0]["mass_v"] == pytest.approx(0.05 * 2.0, rel=1e-12)  # v0 * |Gamma|
    report = (out / "unfold_report.csv").read_text().splitlines()
    assert report[0] == "kind,name,value"
    iso = [line for line in report[1:] if line.startswith("isometry")]
    assert iso and all(float(line.split(",")[2]) <= 1e-12 for line in iso)


def test_cli_macro_requires_tensors(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "fresh"
    assert main(["macro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2


def test_cli_converge_single_row(tmp_path):
    cfg = _write_cfg(tmp_path, "\n[output]\ndump_fields = false\n")
    # restrict the sweep to one eps
    text = cfg.read_text().replace("eps_list = 0.5, 0.25", "eps_list = 0.5")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "convergence_report.csv").read_text().splitlines()
    assert len(lines) == 2


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["transmogrify", "--config", "x"])


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[geometry]\neps = 0.3\n")
    out = tmp_path / "o"
    assert main(["cell", "--config", str(bad), "--out", str(out), "--quiet"]) == 2
    record = (out / "error_record.txt").read_text()
    assert "kind = config" in record and "1/eps" in record


def test_cli_cell_threads_factor_stokes_once(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(MINIMAL.replace("n = 8", "n = 32"))
    built = []
    init = cell_problems._MacOperators.__init__

    def counting_init(self, cell):
        built.append(cell.n)
        init(self, cell)

    monkeypatch.setattr(cell_problems._MacOperators, "__init__", counting_init)
    tensors = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PORECHEM_THREADS", threads)
        monkeypatch.setattr(cell_problems, "_ops_cache", {})
        built.clear()
        out = tmp_path / f"t{threads}"
        assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert built == [32]
        tensors[threads] = read_tensor_csv(out / "effective_tensors.csv")
    S1, K1, _ = tensors["1"]
    S2, K2, _ = tensors["2"]
    assert np.array_equal(S1, S2)
    assert np.array_equal(K1, K2)


def test_cli_byte_identical_reruns(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["micro", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    for name in ("effective_tensors.csv", "micro_series.csv", "u_00002.txt", "resolved_config.ini"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_dump_fields(tmp_path):
    cfg = _write_cfg(tmp_path, "\n[output]\ndump_fields = true\n")
    out = tmp_path / "out"
    assert main(["cell", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "xi_1.txt").exists()
    assert (out / "chi_1_u.txt").exists()
