"""Server process of the serve-v1 workload.

Usage: ``python3 perfbench/server_proc.py KB_DIR WORKERS [TRACE_DIR]``.
Prints the bound port on one line, then serves ``KB_DIR`` with
``create_server(..., workers=WORKERS)`` until standard input reaches EOF.
With ``TRACE_DIR`` the span wrappers are installed before the server forks
its workers, and the server's response cache and encoder are traced too.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.kb.server import create_server

    import spans

    kb_dir, workers = Path(sys.argv[1]), int(sys.argv[2])
    tracer = spans.Tracer(Path(sys.argv[3])) if len(sys.argv) > 3 else None
    if tracer is not None:
        spans.install(tracer)
    server = create_server(kb_dir, workers=workers)
    if tracer is not None:
        spans.trace_server(tracer, server)

    def stop() -> None:
        sys.stdin.read()  # returns at EOF: the benchmark closed our stdin
        server.shutdown()

    threading.Thread(target=stop, daemon=True).start()
    print(server.address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        if tracer is not None:
            tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
