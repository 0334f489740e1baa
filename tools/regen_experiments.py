#!/usr/bin/env python3
"""Refresh EXPERIMENTS.md's generated tables from a captured benchmark run.

Usage: python tools/regen_experiments.py [bench_output.txt [EXPERIMENTS.md]]

The benchmark suite prints every table it produces (``pytest benchmarks/
--benchmark-only -s | tee bench_output.txt``).  This script copies the
tables of the sections it owns -- Figs. 4-7, §VI-E and the ablations --
into the fenced blocks of those sections, matched by their ``## ``
heading and the block's ``=== `` title line, and refreshes the summary
cells that quote them.  Every other byte of the file stays as it is:
the intro, §VI-A (recorded from the DARCO benchmark's runs, not from
this log), the prose between blocks and the sections after the
ablations.  A heading, block or summary row that is missing is an
error, so a renamed section is never dropped silently.
"""

import re
import sys

#: ``## `` heading -> the titles of the log sections its blocks hold.
OWNED = {
    "Figure 4 — dynamic guest instruction distribution (IM/BBM/SBM)":
        ["Figure 4"],
    "Figure 5 — emulation cost: host instructions per guest instruction "
    "(SBM)": ["Figure 5"],
    "Figure 6 — TOL overhead vs application instructions": ["Figure 6"],
    "Figure 7 — TOL overhead breakdown (seven categories)": ["Figure 7"],
    "Section VI-E — warm-up methodology case study":
        ["Warm-up methodology"],
    "Ablations (design choices of §III / §V-D)": [
        "Ablation: chaining / IBTC",
        "Ablation: loop unrolling",
        "Ablation: memory speculation",
        "Ablation: optimization passes",
        "Sweep: promotion thresholds (startup delay trade-off)",
        "Sweep: issue width (wide in-order design point)",
        "Ablation: startup delay (software interp vs dual decoder)",
        "Sweep: alias table size x search policy",
        "Ablation: background translation core",
    ],
}


def _log_section(text, title):
    """The table the log prints under ``=== title``, up to the next
    pytest progress line."""
    start = text.index(f"=== {title}")
    end = text.find("\n.", start)
    return text[start:len(text) if end == -1 else end].rstrip()


def _section_span(doc, heading):
    start = doc.index(f"\n## {heading}\n") + 1
    end = doc.find("\n## ", start)
    return start, len(doc) if end == -1 else end + 1


def _replace_block(doc, heading, title, table):
    """``doc`` with the fenced block of ``## heading`` that starts with
    ``=== title`` holding ``table``."""
    start, end = _section_span(doc, heading)
    opened = doc.index(f"```\n=== {title}", start, end) + len("```\n")
    closed = doc.index("\n```", opened, end)
    return doc[:opened] + table + doc[closed:]


def _replace_cell(doc, label, value):
    """``doc`` with the measured cell (the third) of the summary row
    starting with ``label`` set to ``value``."""
    row = re.compile(r"^(\| " + re.escape(label) + r"[^|\n]*\|[^|\n]*\| )"
                     r"[^|\n]*( \|)", re.M)
    doc, found = row.subn(lambda m: m.group(1) + value + m.group(2), doc,
                          count=1)
    if not found:
        raise ValueError(f"no summary row {label!r}")
    return doc


def regenerate(doc, log):
    """``doc`` (EXPERIMENTS.md's text) refreshed from ``log``."""
    pct = r"([\d.]+%) \(paper"
    num = r"([\d.]+) \(paper"

    def averages(title, pattern):
        return " / ".join(re.findall(r"AVG \S+ +" + pattern,
                                     _log_section(log, title)))

    def grab(pattern):
        match = re.search(pattern, log)
        return match.group(1) if match else "?"

    for heading, titles in OWNED.items():
        for title in titles:
            doc = _replace_block(doc, heading, title,
                                 _log_section(log, title))
    cells = {
        "Fig. 4 SBM share": averages("Figure 4", pct),
        "Fig. 5 emulation cost": averages("Figure 5", num),
        "Fig. 6 TOL overhead": averages("Figure 6", pct),
        "§VI-E warm-up case study": "{} @ {} error".format(
            grab(r"cost reduction     : ([\d.]+x)"),
            grab(r"CPI error          : ([\d.]+%)")),
    }
    for label, value in cells.items():
        doc = _replace_cell(doc, label, value)
    return doc


def main(argv):
    log_path = argv[1] if len(argv) > 1 else "bench_output.txt"
    doc_path = argv[2] if len(argv) > 2 else "EXPERIMENTS.md"
    with open(log_path, encoding="utf-8") as handle:
        log = handle.read()
    with open(doc_path, encoding="utf-8") as handle:
        doc = handle.read()
    doc = regenerate(doc, log)
    with open(doc_path, "w", encoding="utf-8") as handle:
        handle.write(doc)
    print(doc_path, "refreshed from", log_path)


if __name__ == "__main__":
    main(sys.argv)
