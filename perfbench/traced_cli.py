"""Run one varispace CLI command, or a ``-c`` snippet, with layer spans recorded.

    python3 traced_cli.py SPANS_JSON CLI_ARGS...
    python3 traced_cli.py SPANS_JSON -c CODE

The spans are written to SPANS_JSON as a JSON list even when the command
fails; the exit code is the command's.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import varispace.cli

    tracer = Tracer()
    tracer.install()
    try:
        if argv[:1] == ["-c"]:
            exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
            return 0
        return varispace.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
