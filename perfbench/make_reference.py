"""Write reference.json: the verdict digest of each workload per seed.

Run from the root of a checkout, at a commit whose verdicts are trusted:

    python3 perfbench/make_reference.py

Each workload config of the pool (``workloads.CONFIG_POOL`` per workload)
is run once as a CLI process and must pass every other output check.  A
workload whose config does not depend on the seed gets one digest under
"*".
"""

from __future__ import annotations

import json
import sys

import checks
import measure
import workloads


def digest_for(name: str, index: int) -> str:
    wl = workloads.build(name, index)
    workloads.prepare(wl)
    checker = checks.OutputChecker(wl.fmt, workloads.out_path(name), None)
    checker.clear_outputs()
    r = measure.spawn(measure.cli_args(wl.argv), measure.child_env(),
                      workloads.workdir(name))
    outcome = checker.check_output(r.exit_code, r.stdout, r.stderr)
    if outcome.problems:
        raise SystemExit(f"{name} config {index}: {'; '.join(outcome.problems)}")
    return outcome.digest


def main() -> int:
    measure.require_checkout()
    table = {}
    for name in workloads.WORKLOADS:
        if workloads.build(name, 0).config is None:
            table[name] = {"*": digest_for(name, 0)}
        else:
            table[name] = {str(i): digest_for(name, i) for i in range(workloads.CONFIG_POOL)}
        print(f"{name}: {len(table[name])} digests", file=sys.stderr)
    checks.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
