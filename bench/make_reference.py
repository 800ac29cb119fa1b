"""Write bench/reference.json, the outputs the benchmark compares against.

    python3 bench/make_reference.py

The catalog reports do not depend on the seed: entries are shuffled, but
the report orders records by entry id.  Their SHA-256 digests are stored
once; a run whose report differs by a byte fails.  Solve and construct
outputs depend on the seeded inputs and are stored as truncated digests
of their canonical text for seeds 0 .. SEEDS-1; runs with other seeds rely on
the invariant checks alone.

Regenerate only for an intended change of verdict or report bytes.  The
script refuses to write when any invariant check fails.
"""

from __future__ import annotations

import json
import sys

import run

DIGEST_CHARS = 12
#: solve and construct outputs are stored for seeds 0 .. SEEDS-1
SEEDS = 32


def one_round(workloads, name, seed):
    wl = workloads.make(name, run.ROOT, seed, None)
    try:
        r = wl.round()
    finally:
        wl.close()
    bad = [f"{op.id}: {op.detail}" for op in r.ops if not op.ok]
    if bad:
        run.fail(f"{name} seed {seed} fails its checks:\n  " + "\n  ".join(bad))
    return r


def main():
    run.import_program()
    import workloads

    r = one_round(workloads, "catalog", 0)
    doc = {
        "catalog": {"full": r.passes[0].output,
                    "entries": {op.id: op.output for op in sorted(r.items, key=lambda o: o.id)}},
        "solve": {},
        "construct": {},
    }
    for name in ("solve", "construct"):
        for seed in range(SEEDS):
            r = one_round(workloads, name, seed)
            doc[name][str(seed)] = {op.id: workloads.digest(op.output)[:DIGEST_CHARS]
                                    for op in r.items}
            print(f"{name} seed {seed}: {len(r.items)} items", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
