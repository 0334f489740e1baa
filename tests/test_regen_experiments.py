"""``tools/regen_experiments.py`` refreshes only what it generates.

The tool runs on a copy of EXPERIMENTS.md with a small captured
benchmark log: the tables of Figs. 4-7, §VI-E and the ablations land in
their sections' fenced blocks and the summary cells that quote them,
while the intro, §VI-A (the log's one-run speed table is not copied),
the prose between blocks and every section it does not own keep every
byte.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "regen_experiments.py"

#: A captured ``pytest benchmarks/ --benchmark-only -s`` log, cut down to
#: a row or two per table; pytest's progress dots end each table.
LOG = """\
benchmarks/bench_fig4_mode_distribution.py
=== Figure 4: dynamic guest instruction distribution ===
benchmark           suite           IM%       BBM%      SBM%
429.mcf             SPECINT2006     0.7%      2.5%      96.8%
AVG SPECINT2006                                         91.0% (paper 88%)
AVG SPECFP2006                                          97.0% (paper 96%)
AVG Physicsbench                                        70.0% (paper 75%)
.
=== Figure 5: emulation cost (host insns / guest insn, SBM) ===
benchmark           suite           host/guest
429.mcf             SPECINT2006     3.50
AVG SPECINT2006                     3.90 (paper 4.0)
AVG SPECFP2006                      2.10 (paper 2.6)
AVG Physicsbench                    3.00 (paper 3.1)
.
=== Figure 6: TOL overhead share of the host dynamic stream ===
benchmark           suite           TOL%          app insns
429.mcf             SPECINT2006     12.0%         1379000
AVG SPECINT2006                     16.5% (paper 16%)
AVG SPECFP2006                      9.5% (paper 13%)
AVG Physicsbench                    40.5% (paper 41%)
.
=== Figure 7: TOL overhead breakdown by category ===
benchmark           interpreter  bb_xl      sb_xl
429.mcf             31.0%      48.0%      2.5%
.
=== DARCO speed (paper section VI-A) ===
stream                   this repo   paper (C++)
guest functional          101.0k/s       3400k/s
guest with timing          21.0k/s        370k/s
host functional           505.0k/s      20000k/s
host with timing          105.0k/s       2000k/s
functional/timing slowdown: 4.8x (paper 9.2x)
.
=== Warm-up methodology case study (paper section VI-E) ===
workload           : 473.astar
CPI error          : 7.50% (paper 0.75%)
cost reduction     : 30.2x (paper 65x)
.
"""
LOG += "".join(f"=== {title} ===\nconfig    value\nrow{k}      {k}\n.\n"
               for k, title in enumerate((
                   "Ablation: chaining / IBTC",
                   "Ablation: loop unrolling",
                   "Ablation: memory speculation",
                   "Ablation: optimization passes",
                   "Sweep: promotion thresholds (startup delay trade-off)",
                   "Sweep: issue width (wide in-order design point)",
                   "Ablation: startup delay (software interp vs dual "
                   "decoder)",
                   "Sweep: alias table size x search policy",
                   "Ablation: background translation core")))

OWNED = ("Figure 4", "Figure 5", "Figure 6", "Figure 7", "Section VI-E",
         "Ablations")


def _sections(doc):
    """``{heading or '': text}``: the intro and each ``## `` section."""
    parts = re.split(r"^(?=## )", doc, flags=re.M)
    return {part.split("\n", 1)[0] if part.startswith("## ") else "": part
            for part in parts}


def _run(tmp_path, log=LOG):
    doc = tmp_path / "EXPERIMENTS.md"
    log_path = tmp_path / "bench_output.txt"
    log_path.write_text(log, encoding="utf-8")
    return subprocess.run([sys.executable, str(TOOL), str(log_path),
                           str(doc)], capture_output=True, text=True,
                          cwd=tmp_path), doc


def test_tool_refreshes_only_the_sections_it_owns(tmp_path):
    original = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    (tmp_path / "EXPERIMENTS.md").write_text(original, encoding="utf-8")
    proc, doc = _run(tmp_path)
    assert proc.returncode == 0, proc.stderr
    new = doc.read_text(encoding="utf-8")

    before, after = _sections(original), _sections(new)
    assert list(after) == list(before)
    assert len([h for h in after if h]) == 16
    for heading, text in before.items():
        if heading == "## Summary" or heading.startswith(
                tuple(f"## {name}" for name in OWNED)):
            continue
        assert after[heading] == text, f"{heading or 'intro'} changed"

    # The generated blocks hold the log's tables ...
    assert "429.mcf             SPECINT2006     0.7%" in new
    assert "cost reduction     : 30.2x (paper 65x)" in new
    assert "row8      8" in new
    assert "101.0k/s" not in new
    assert "400.perlbench" not in after[
        "## Figure 4 — dynamic guest instruction distribution "
        "(IM/BBM/SBM)"]
    # ... and the prose around them stays.
    ablations = "## Ablations (design choices of §III / §V-D)"
    for text in (before[ablations].split("```")[::2]):
        assert text in after[ablations]

    rows = {line.split("|")[1].strip(): line
            for line in after["## Summary"].splitlines()
            if line.startswith("| ")}
    old_rows = {line.split("|")[1].strip(): line
                for line in before["## Summary"].splitlines()
                if line.startswith("| ")}
    assert "| 91.0% / 97.0% / 70.0% |" in rows[
        "Fig. 4 SBM share (INT/FP/Phys)"]
    assert "| 3.90 / 2.10 / 3.00 |" in rows[
        "Fig. 5 emulation cost (INT/FP/Phys)"]
    assert "| 16.5% / 9.5% / 40.5% |" in rows[
        "Fig. 6 TOL overhead (INT/FP/Phys)"]
    assert "| 30.2x @ 7.50% error |" in rows["§VI-E warm-up case study"]
    for label in ("§VI-A speed", "Fig. 7 overhead breakdown", "experiment"):
        assert rows[label] == old_rows[label]
    summary_prose = [line for line in after["## Summary"].splitlines()
                     if not line.startswith("| ")]
    assert summary_prose == [line for line in
                             before["## Summary"].splitlines()
                             if not line.startswith("| ")]

    # A second run changes nothing.
    proc, doc = _run(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert doc.read_text(encoding="utf-8") == new


@pytest.mark.parametrize("cut", ["=== Figure 7", "=== Ablation: loop"])
def test_tool_leaves_the_file_alone_when_the_log_lacks_a_table(tmp_path,
                                                               cut):
    original = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    (tmp_path / "EXPERIMENTS.md").write_text(original, encoding="utf-8")
    proc, doc = _run(tmp_path, LOG.replace(cut, "=== (not run)"))
    assert proc.returncode != 0
    assert doc.read_text(encoding="utf-8") == original
