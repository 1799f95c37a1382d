"""Run ``repro serve`` in this process, optionally traced.

``python3 perfbench/serve_main.py [--spans-out FILE] -- serve ARGS...``
calls the program's CLI with ``serve ARGS``.  With ``--spans-out`` every
layer of :mod:`perfbench.layers` is wrapped first, and when the server
stops the recorded spans and the absent layers are written to FILE as
JSON.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: "list[str]") -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    from repro.cli import main as cli_main

    if not options:
        return cli_main(cli_args)
    if options[0] != "--spans-out" or len(options) != 2:
        raise SystemExit("usage: serve_main.py [--spans-out FILE] -- serve ARGS...")
    from perfbench.layers import targets
    from perfbench.trace import Tracer, import_all, patched

    import_all("repro")
    tracer = Tracer()
    with patched(tracer, targets(tracer)) as installed:
        code = cli_main(cli_args)
    document = {"absent": installed.absent, **tracer.to_json()}
    pathlib.Path(options[1]).write_text(json.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
