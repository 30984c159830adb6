"""Command-line entry point: parse a manifest, run its tasks, print a report.

Exit codes: 0 when every executed task passes, 1 when any task fails (or
the build does), 2 on parse or usage errors, a manifest file that cannot
be read as UTF-8 text included.  The report on stdout is
byte-identical across runs for a fixed manifest and seed; per-task timing
goes to stderr unless --quiet is given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .errors import ParseError, PrecourantError
from .manifest import META_MINIMUM, parse_manifest
from .parsing import parse_int
from .runner import run_manifest
from .tasks import TASKS


def builtin_manifest_dir() -> Path:
    return Path(__file__).resolve().parent / "manifests"


def builtin_manifests() -> List[str]:
    return sorted(p.stem for p in builtin_manifest_dir().glob("*.pcm"))


def resolve_manifest(name_or_path: str) -> Path:
    path = Path(name_or_path)
    if path.exists():
        return path
    candidate = builtin_manifest_dir() / f"{name_or_path}.pcm"
    if candidate.exists():
        return candidate
    raise FileNotFoundError(
        f"no manifest file {name_or_path!r}; builtin names: {', '.join(builtin_manifests())}"
    )


def _int_at_least(key: str):
    """An argparse type for an override held to the manifest grammar's minimum."""
    minimum = META_MINIMUM[key]

    def parse(text: str) -> int:
        try:
            return parse_int(text, minimum)
        except ParseError as exc:  # exc.found clips runaway text
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {exc.found!r}"
            ) from None

    return parse


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precourant",
        description="Exact verification of pre-Courant algebroid structures "
        "described by a manifest.",
    )
    parser.add_argument(
        "--manifest",
        required=True,
        help="manifest path, or the name of a builtin manifest "
        f"({', '.join(builtin_manifests())})",
    )
    parser.add_argument(
        "--task",
        action="append",
        default=None,
        metavar="NAME",
        help="task to run (repeatable; default: the manifest's task list); "
        f"known tasks: {', '.join(TASKS)}",
    )
    parser.add_argument("--seed", type=_int_at_least("seed"), help="override the manifest seed")
    parser.add_argument(
        "--trials", type=_int_at_least("trials"), help="override the trial count"
    )
    parser.add_argument(
        "--max-degree", type=_int_at_least("max_degree"), help="override the sampling degree bound"
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--quiet", action="store_true", help="suppress stderr timing")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        path = resolve_manifest(args.manifest)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        manifest = parse_manifest(path.read_text(encoding="utf-8"), name=path.stem)
    except OSError as exc:  # a directory, or a file that cannot be read
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2

    for key in META_MINIMUM:
        if getattr(args, key) is not None:
            setattr(manifest, key, getattr(args, key))

    timings: List = []
    try:
        report = run_manifest(manifest, tasks=args.task, timings=timings)
    except PrecourantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(report.to_json() if args.json else report.to_text())
    if not args.quiet:
        for name, elapsed in timings:
            print(f"timing {name} = {elapsed * 1000:.1f} ms", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
