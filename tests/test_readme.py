"""The README's examples run as written: every fenced python block, and its
JSON sweep config through parse_config, iter_blocks and emit_parts."""

import dataclasses
import math
import re
from pathlib import Path

from noisecascade import (
    build_system,
    design_nonreciprocal,
    disconnected_baseline,
    linear_response,
    map_to_cascaded,
    occupations,
    preset_microwave,
)
from noisecascade.sweeps import column_names, emit_parts, iter_blocks, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    blocks = fenced("python")
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:  # later blocks use names from earlier ones
        exec(compile(block, "README.md", "exec"), namespace)


def test_sweep_config_runs():
    (text,) = fenced("json")
    cfg = parse_config(text)
    (result,) = iter_blocks(cfg)  # 101 x 101 points: one block
    points = math.prod(ax.points for ax in cfg.axes)
    assert result.values.shape == (points, len(column_names(cfg)) - 1)
    assert (result.status == "ok").all()
    lines = b"".join(emit_parts([result], cfg)).decode().split("\n")
    assert lines[0] == ",".join(column_names(cfg))
    assert len(lines) == points + 2  # header, one line per point, trailing LF


def test_preset_design_point_numbers():
    """The preset tuned to its design point: the README's rates and occupations."""
    pre = preset_microwave()
    d = design_nonreciprocal(pre)
    q = dataclasses.replace(pre, J=d.j_star, phi=d.phi_star, Nbar1=1.0, Nbar2=2.0, Nbar_m=0.5)
    p = map_to_cascaded(q)
    assert p.kappa1 == p.kappa2 and p.gamma1 == p.gamma2 and p.gamma1 < p.kappa1
    sys = build_system(p)
    W, _, reason = linear_response(sys)
    assert reason == 0
    (n1, n2), (m1, m2) = occupations(W, sys.nbar), disconnected_baseline(p)
    assert abs(n1 - m1) <= 1e-12  # dn1: mode 1 does not feel mode 2
    text = " ".join(README.split())
    for quoted in (f"`kappa = {p.kappa1:.4e}`", f"`gamma = 4 G^2 / gamma_m = {p.gamma1:.4e}`",
                   f"`n1 = m1 = {m1:.5f}`", f"`dn2 = {n2 - m2:.5f}`"):
        assert quoted in text, quoted
