"""Run one formgaps command in-process under the layer trace.

    python bench/trace_child.py SPANS.json -- <formgaps arguments>

formgaps must be importable (run.py puts the checkout's src/ on PYTHONPATH).
stdout and the exit code are those of the command; the spans go to SPANS.json
once it ends.  Exit 97 means a traced function is missing.
"""

from __future__ import annotations

import json
import sys

import tracing

MISSING_LAYER_EXIT = 97


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS.json -- <formgaps arguments>")
    import formgaps.cli

    rec = tracing.Recorder()
    try:
        tracing.install(rec)
    except tracing.MissingLayer as e:
        print(f"trace: {e}", file=sys.stderr)
        return MISSING_LAYER_EXIT
    try:
        return formgaps.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(rec.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
