"""The README's examples run as written: every fenced python block, and its
JSON sweep config through parse_config, run_sweep and emit."""

import math
import re
from pathlib import Path

from noisecascade.sweeps import column_names, emit, parse_config, run_sweep

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
    result = run_sweep(cfg)
    points = math.prod(ax.points for ax in cfg.axes)
    assert result.values.shape == result.valid.shape == (points, len(column_names(cfg)) - 1)
    assert (result.status == "ok").all()
    lines = emit(result, cfg).decode().split("\n")
    assert lines[0] == ",".join(column_names(cfg))
    assert len(lines) == points + 2  # header, one line per point, trailing LF
