import pytest

from geospar.config import RunConfig, adversarial_k, parse_config
from geospar.errors import ConfigError


def test_defaults_complete():
    cfg = RunConfig()
    assert cfg.eps == 0.1 and cfg.delta == 0.05 and cfg.k == 3
    assert cfg.kernel == "gaussian"
    assert cfg.c_sk == 4.0


def test_parse_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("""
# comment line
eps = 0.5
allow_large_eps = true
kernel = cauchy
seed = 99
c_s = 0.125
rebuild_budget = 12
""")
    cfg = parse_config(path)
    assert cfg.eps == 0.5 and cfg.allow_large_eps
    assert cfg.kernel == "cauchy" and cfg.seed == 99
    assert cfg.c_s == 0.125 and cfg.rebuild_budget == 12


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    for line in ("epsilon = 0.5", "kernel_c = 2", "c_jl = 1",
                 "kernel_l = 1.5"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("eps 0.5\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(path)


def test_bad_value_reports_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("eps = soup\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config(path)


def test_kernel_resolution_and_overrides():
    kern = RunConfig(kernel="gravity").make_kernel()
    assert kern.name == "gravity"
    with pytest.raises(ConfigError):
        RunConfig(kernel="nope").make_kernel()


def test_auto_adversarial_k():
    cfg = RunConfig(k=0)
    assert cfg.resolve_k(256) == adversarial_k(256) == 3
    assert RunConfig(k=5).resolve_k(256) == 5
