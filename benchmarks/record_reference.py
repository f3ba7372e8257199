"""Record the reference output of every benchmark request.

    python3 benchmarks/record_reference.py

Run it at the commit whose outputs are the reference; it refuses to
record a result that fails a closed-form oracle. The file keeps the
commit and source digest it was recorded at.
"""

from __future__ import annotations

import json
import sys

import oracles
import run
import workloads


def main():
    outputs, bad = {}, []
    for name, requests in workloads.WORKLOADS.items():
        for request in requests:
            result = workloads.execute(request, 0)
            canon = workloads.canonical(request, result)
            # compare with itself so that only the oracles can object
            problems = oracles.problems(request, result, canon, canon)
            if problems:
                bad.append((request.id, problems))
            outputs[request.id] = canon
            print(f"{name:18s} {request.id}", flush=True)
    if bad:
        for rid, problems in bad:
            print(f"oracle failure {rid}: {problems}", file=sys.stderr)
        return 1
    payload = {"commit": run.commit(), "source_sha256": run.source_digest(),
               "outputs": outputs}
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} outputs to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
