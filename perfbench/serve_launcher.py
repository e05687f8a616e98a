"""Start ``repro.serve`` in this process, optionally traced.

    python3 perfbench/serve_launcher.py --trace 1 --report OUT.json -- --port 0 ...

Everything after ``--`` goes to ``repro.serve``'s own command line.
With ``--trace 1`` the span recorder of perfbench/spans.py is installed
around the serving, solving and protection layers before the server
starts.  When the server stops (a ``shutdown`` op), the launcher writes
``--report``: when traced, the per-span totals
(the spans themselves go next to it as JSON lines), otherwise ``{}``.
"""

from __future__ import annotations

import argparse
import json
import sys

import benchlib
import spans


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv[:split])
    serve_argv = argv[split + 1:]

    benchlib.import_repro()
    import repro.serve.__main__ as serve_main
    import repro.serve.server  # noqa: F401  (bind every by-name import first)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        benchlib.install_layers(tracer)
    code = serve_main.main(serve_argv)
    report = {}
    if tracer is not None:
        report["spans"] = dict(spans.totals(tracer.spans))
        tracer.write(args.report + ".spans.jsonl")
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
