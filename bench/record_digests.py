"""Record the canonical-output digests the benchmark checks against.

    python3 bench/record_digests.py

Runs one pass of every workload and writes bench/digests.json: per
workload, a truncated sha256 of each case's canonical output.  Record
again only for a change that is meant to alter canonical outputs; a
speed-up must leave them byte-identical.
"""

from __future__ import annotations

import json

import run


def main():
    workloads = run.import_program()
    record = {}
    for name, make in workloads.WORKLOADS.items():
        cases = make(0).run_pass()
        bad = [c.case_id for c in cases if not c.ok or c.output is None]
        if bad:
            raise SystemExit("%s: %d cases fail, first %s" % (name, len(bad), bad[0]))
        digests = {c.case_id: run.case_digest(c.output) for c in cases}
        record[name] = dict(sorted(digests.items()))
        print("%s: %d cases" % (name, len(digests)))
    with open(run.BENCH / "digests.json", "w") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
