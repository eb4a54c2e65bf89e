#!/usr/bin/env python3
"""Prints a cable-metrics-v1 document with its wall-clock fields removed.

Usage:
    strip_wallclock.py metrics.json > stripped.json

Everything a fixed-seed run computes deterministically is kept, so the
output can be compared byte for byte against a committed fixture
(tools/golden_stats.cmake FILTER mode). What measures host time is
reduced to what does not:

  - each t_stage_*_ns histogram and the encode_ns sketch keep only
    their sample count;
  - the critpath section keeps its event, span and clock-read counts
    and drops every *_ns total, share and the binding stage.
"""

import json
import sys

_CRITPATH_TIMED = ("binding_stage", "binding_share", "critical_share")


def _strip_stats(stats):
    hists = stats.get("histograms", {})
    for name in hists:
        if name.startswith("t_stage_") and name.endswith("_ns"):
            hists[name] = {"count": hists[name]["count"]}
    sketches = stats.get("sketches", {})
    if "encode_ns" in sketches:
        sketches["encode_ns"] = {"count": sketches["encode_ns"]["count"]}


def _strip_timed(obj):
    if isinstance(obj, dict):
        return {k: _strip_timed(v) for k, v in obj.items()
                if not k.endswith("_ns") and k not in _CRITPATH_TIMED}
    if isinstance(obj, list):
        return [_strip_timed(v) for v in obj]
    return obj


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    _strip_stats(doc["stats"])
    for epoch in doc.get("epochs", []):
        _strip_stats(epoch["stats"])
    if doc.get("critpath") is not None:
        doc["critpath"] = _strip_timed(doc["critpath"])
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
