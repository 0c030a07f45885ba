#!/usr/bin/env python3
"""Compare two round logs round by round.

Prints, as JSON, the number of rounds in each log and, over the rounds
both hold: the largest |p_A - p_B|, |q_A - q_B| and |s_residual_A -
s_residual_B|, the first round where p, q, y, s_residual or the branch
differ (or where one log ends early), and every round whose y or branch
differs. The logs are read with defcast's own
reader, so a log that `defcast certify` rejects is rejected here too, with
exit code 2.

Usage: python3 scripts/diff_logs.py A B
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from defcast.experiments import ConfigError, read_round_log  # noqa: E402

COLUMNS = ("p", "q", "y", "s_residual", "branch")


def diff_logs(path_a, path_b) -> dict:
    """The comparison of two round logs that main prints."""
    a, b = (list(zip(*read_round_log(path, COLUMNS)[1]))
            for path in (path_a, path_b))
    dp = dq = ds = 0.0
    first = None if len(a) == len(b) else min(len(a), len(b)) + 1
    y_or_branch = []
    for n, (ra, rb) in enumerate(zip(a, b), 1):
        (pa, qa, ya, sa, ba), (pb, qb, yb, sb, bb) = ra, rb
        dp, dq = max(dp, abs(pa - pb)), max(dq, abs(qa - qb))
        ds = max(ds, abs(sa - sb))
        if ra != rb:
            first = min(first or n, n)
        if ya != yb or ba != bb:
            y_or_branch.append({"round": n, "y": [ya, yb],
                                "branch": [ba.value, bb.value]})
    return {"rounds": [len(a), len(b)], "max_abs_dp": dp, "max_abs_dq": dq,
            "max_abs_ds_residual": ds, "first_divergent_round": first,
            "y_or_branch_differ": y_or_branch}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="round log A (CSV)")
    ap.add_argument("b", help="round log B (CSV)")
    args = ap.parse_args(argv)
    try:
        result = diff_logs(args.a, args.b)
    except (OSError, ConfigError) as exc:
        print(f"diff_logs: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
