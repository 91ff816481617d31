#!/usr/bin/env python3
"""Check that BUILDING.md's knob tables list exactly the HIRA_* knobs
the code reads.

A knob is a string literal of the form "HIRA_NAME" in src/, in the
bench drivers (bench/*.cc, bench/*.hh), in tools/*.cc or in examples/.
A knob-table row is a BUILDING.md table row whose first cell starts
with `HIRA_NAME` (an optional `=<value>` suffix is ignored). CMake
options (option(HIRA_...) in CMakeLists.txt) share the prefix but are
not environment knobs, so their table rows are skipped; HIRA_GIT_REV
is a compile definition, not a knob.

Usage: check_knobs.py [REPO_ROOT]

Exits 0 when the two sets agree. Exits 1 otherwise, listing each knob
the code reads but no table documents, and each documented knob no
code reads.
"""

import pathlib
import re
import sys

LITERAL = re.compile(r'"(HIRA_[A-Z_]+)"')
TABLE_ROW = re.compile(r"^\|\s*`(HIRA_[A-Z_]+)")
CMAKE_OPTION = re.compile(r"option\(\s*(HIRA_[A-Z_]+)")
NOT_KNOBS = {"HIRA_GIT_REV"}


def code_knobs(root):
    files = [p for p in (root / "src").rglob("*") if p.is_file()]
    files += sorted((root / "bench").glob("*.cc"))
    files += sorted((root / "bench").glob("*.hh"))
    files += sorted((root / "tools").glob("*.cc"))
    files += [p for p in (root / "examples").rglob("*") if p.is_file()]
    knobs = set()
    for path in files:
        knobs.update(LITERAL.findall(path.read_text(encoding="utf-8")))
    return knobs - NOT_KNOBS


def documented_knobs(root):
    options = set(CMAKE_OPTION.findall(
        (root / "CMakeLists.txt").read_text(encoding="utf-8")))
    knobs = set()
    for line in (root / "BUILDING.md").read_text(
            encoding="utf-8").splitlines():
        m = TABLE_ROW.match(line)
        if m and m.group(1) not in options:
            knobs.add(m.group(1))
    return knobs


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    read = code_knobs(root)
    documented = documented_knobs(root)
    ok = True
    for knob in sorted(read - documented):
        print(f"error: {knob} is read by the code but missing from "
              f"BUILDING.md's knob tables", file=sys.stderr)
        ok = False
    for knob in sorted(documented - read):
        print(f"error: {knob} is in BUILDING.md's knob tables but no "
              f"code reads it", file=sys.stderr)
        ok = False
    if ok:
        print(f"{len(read)} HIRA_* knobs, all documented")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
