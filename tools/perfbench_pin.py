#!/usr/bin/env python3
"""Holds perfbench results to their pinned machine-independent numbers.

Usage: perfbench_pin.py PINS NAME=OUT..., each OUT the stdout of `perfbench/
run.py --workload NAME --seed 1 --seconds 2 --trace 0`. PINS maps each
workload's metrics to {"equals": x} (virtual time, the same on any machine)
or {"at_most": x} (a ceiling that may fall, never rise). Exits 1 on any
broken pin and fails closed on a missing workload or metric, an unpinned
workload, "correct" other than true, or malformed JSON.
"""

import json
import math
import sys


def number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def load_pins(path):
    """{workload: {metric: (check, bound)}}; raises ValueError if malformed."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not (isinstance(doc, dict) and doc and all(
            isinstance(pinned, dict) and pinned for pinned in doc.values())):
        raise ValueError("expected {workload: {metric: pin, ...}, ...}")
    pins = {}
    for name, metrics in doc.items():
        pins[name] = {}
        for metric, pin in metrics.items():
            items = list(pin.items()) if isinstance(pin, dict) else []
            check, bound = items[0] if len(items) == 1 else (None, None)
            if check not in ("equals", "at_most") or not number(bound):
                raise ValueError(f"malformed pin {name}.{metric}: {pin!r}")
            pins[name][metric] = (check, bound)
    return pins


def violations(name, pinned, path):
    """The pins of workload `name` that the result in `path` breaks."""
    try:
        with open(path, encoding="utf-8") as f:
            result = json.loads(f.read().strip().splitlines()[-1])
    except (OSError, IndexError, ValueError) as err:
        return [f"{name}: unreadable result {path}: {err}"]
    correct = result.get("correct") if isinstance(result, dict) else None
    if correct is not True:
        return [f"{name}: perfbench reports correct = {correct!r}"]
    metrics = result.get("metrics")
    failures = []
    for metric, (check, bound) in sorted(pinned.items()):
        entry = metrics.get(metric) if isinstance(metrics, dict) else None
        value = entry.get("value") if isinstance(entry, dict) else None
        line = f"{name}.{metric} {value!r} ({check} {bound!r})"
        if not number(value):
            failures.append(f"{name}.{metric} missing from the result")
        elif (value != bound) if check == "equals" else (value > bound):
            failures.append(line)
        else:
            print(f"perfbench_pin: {line}")
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        pins = load_pins(argv[1])
    except (OSError, ValueError) as err:
        print(f"perfbench_pin: malformed pins file {argv[1]}: {err}",
              file=sys.stderr)
        return 1
    results = dict(arg.partition("=")[::2] for arg in argv[2:])
    failures = [f"{name}: not a pinned workload" for name in results
                if name not in pins]
    if len(results) != len(argv) - 2:
        failures.append("a workload is given twice")
    for name in sorted(pins):
        if not results.get(name):
            failures.append(f"{name}: pinned workload has no result")
        else:
            failures += violations(name, pins[name], results[name])
    for failure in failures:
        print(f"perfbench_pin: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
