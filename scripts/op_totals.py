#!/usr/bin/env python3
"""Checks the per-op totals of a `repro all --quick --metrics` snapshot
against a committed golden file.

The totals are the unlabelled counters of the per-op layers (NVM device,
`oid_direct` translator, POLB, POT) and the count and sum of their four
histograms. The quick run is deterministic, so the check is exact: any
difference means a layer counts, or publishes, differently.

    python3 scripts/op_totals.py SNAPSHOT.json GOLDEN.tsv

The golden file holds one `name<TAB>value` line per total. Edit it only
for an intended model change, and say so in CHANGES.md.
"""
import json
import sys

COUNTERS = [
    "core.polb.hits",
    "core.polb.misses",
    "core.polb.fills",
    "core.polb.evictions",
    "core.pot.walks",
    "nvm.device.reads",
    "nvm.device.writes",
    "nvm.device.bytes_read",
    "nvm.device.bytes_written",
    "nvm.device.clwbs",
    "nvm.device.fences",
    "nvm.device.crashes",
    "nvm.device.dropped_clwbs",
    "nvm.device.torn_lines",
    "pmem.oid_direct.calls",
    "pmem.oid_direct.predictor_hits",
    "pmem.oid_direct.predictor_misses",
    "pmem.oid_direct.instructions",
]
HISTOGRAMS = [
    "nvm.device.read_bytes",
    "nvm.device.write_bytes",
    "pmem.oid_direct.probe_len",
    "core.pot.probe_len",
]


def totals(snapshot):
    out = {name: snapshot["counters"].get(name) for name in COUNTERS}
    for name in HISTOGRAMS:
        h = snapshot["histograms"].get(name, {})
        out[name + ".count"] = h.get("count")
        out[name + ".sum"] = h.get("sum")
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        got = totals(json.load(f))
    with open(sys.argv[2]) as f:
        want = dict(line.rstrip("\n").split("\t") for line in f if line.strip())
    bad = [
        f"{name}: golden {want.get(name)}, got {got.get(name)}"
        for name in sorted(set(want) | set(got))
        if want.get(name) != str(got.get(name))
    ]
    print("\n".join(bad) or f"{len(got)} per-op totals match {sys.argv[2]}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
