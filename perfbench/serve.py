"""Run the ``repro`` command line, optionally with the span wrappers.

    python3 perfbench/serve.py --unix NAME --rss-out RSS --trace-out SPANS \
        -- serve --data-dir D

is ``python -m repro serve --data-dir D`` listening on the Linux
abstract Unix socket ``NAME`` instead of a TCP port, with
:func:`spans.install` applied first.  When the command returns
(``repro serve`` returns after a SIGTERM drain) the spans are written to
``SPANS`` and the process's peak resident set size, in MB, to ``RSS``.
An empty ``--trace-out`` runs the command untraced.

A Unix socket needs no network: it works where the loopback interface
is down or missing (a sandbox's empty network namespace), needs no free
port, and the abstract name leaves no file behind.
"""

import argparse
import resource
import socket
import socketserver
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def listen_on_unix(name: str) -> None:
    """Make ``repro serve`` bind the abstract Unix socket ``name``
    whatever host and port it is given."""
    from repro.service import server

    class UnixServiceHTTPServer(server.ServiceHTTPServer):
        address_family = socket.AF_UNIX

        def __init__(self, _address, service):
            super().__init__("\0" + name, service)

        def server_bind(self):
            socketserver.TCPServer.server_bind(self)
            self.server_name, self.server_port = "localhost", 0

        def get_request(self):
            # A Unix peer has no (host, port); the request handler's
            # logging expects one.
            request, _ = self.socket.accept()
            return request, ("local", 0)

    server.ServiceHTTPServer = UnixServiceHTTPServer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unix", required=True)
    parser.add_argument("--rss-out", required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = None
    if args.trace_out:
        from spans import Tracer, install

        tracer = install(Tracer())
    listen_on_unix(args.unix)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        Path(args.rss_out).write_text(f"{peak_kb / 1024.0}\n")


if __name__ == "__main__":
    sys.exit(main())
