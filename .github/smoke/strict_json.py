"""Load each JSON file named on the command line as strict RFC 8259 JSON:
the NaN, Infinity and -Infinity that Python's json module accepts by
default are refused, and the script exits 1 on the first one.

    python .github/smoke/strict_json.py summary.json report.json ...
"""

import json
import sys


def _refuse(constant):
    raise ValueError(f"non-finite constant {constant}")


def main(names: list[str]) -> int:
    for name in names:
        with open(name) as fh:
            try:
                json.load(fh, parse_constant=_refuse)
            except ValueError as exc:
                print(f"{name}: not strict JSON: {exc}", file=sys.stderr)
                return 1
        print(f"{name}: strict JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
