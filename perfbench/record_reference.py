"""Record the reference corpus digests that run.py compares against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose answers are the
reference.  It rewrites perfbench/reference.json.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    geu = run.load_package()
    import check
    import gen

    out = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in run.WORKLOADS.items():
            docs = run.reference_documents(gen, name, workload)
            reports = []
            for i, doc in enumerate(docs):
                path = Path(tmp) / f"{name}{i}.json"
                path.write_text(json.dumps(doc))
                code, text = run.compute(geu.cli, path, workload.compute_args)
                bad = run.problem_failures(check, doc, code, text)
                if bad:
                    raise SystemExit(f"{name} reference {i}: {bad}")
                reports.append(check.fingerprint(json.loads(text)))
            out[name] = {
                "seed": run.REFERENCE_SEED,
                "documents_sha256": check.documents_digest(docs),
                "reports": reports,
            }
            print(name, len(reports), "reports")
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
