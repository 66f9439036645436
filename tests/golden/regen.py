"""Update the golden corpus from the current code and list the calls that changed.

Run:

    python tests/golden/regen.py

Only the calls that are new or that fail their golden check are written, so
an output that moved within its comparison tolerance keeps its committed
file.  The expected files of calls no longer in the call list are removed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from corpus import (  # noqa: E402
    EXIT_CODES,
    EXPECTED,
    corpus,
    load_expected,
    mismatch,
    read_exit_codes,
    run,
    write_expected,
)


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    old_codes = read_exit_codes()
    calls = corpus()
    names = {call.name for call in calls}
    codes = {}
    changed = []
    for call in calls:
        result = run(call)
        want = load_expected(call, old_codes)
        if want is None:
            changed.append(f"new       {call.name}")
            write_expected(call, result)
        else:
            why = mismatch(call, want, result)
            if why is not None:
                changed.append(f"changed   {call.name}: {why[:160]}")
                write_expected(call, result)
        codes[call.name] = result[0]
    for path in sorted(EXPECTED.glob("*.out")) + sorted(EXPECTED.glob("*.err")):
        if path.stem not in names:
            path.unlink()
            changed.append(f"removed   {path.name}")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print("\n".join(changed) if changed else "no call changed")
    print(f"{len(calls)} calls, {len(changed)} changed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
