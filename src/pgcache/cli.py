"""Command-line front end.

Subcommands: params, construct, simulate, bounds, tables, sweep.  Exit
codes: 0 success, 2 bad input, 3 enumeration cap exceeded or a size that
does not fit in memory, 4 file I/O, 5 validation or schema failure, a
broken invariant included.  PGCACHE_CAP overrides the default cap of
10^7 line-graph vertices.  construct writes its document to a temporary
file beside the target and renames it into place after the last chunk,
so a failed build or render leaves none.
"""

from __future__ import annotations

import argparse
import errno
import json
import mmap
import os
import stat
import sys
import tempfile
from fractions import Fraction

from .bounds import SystemTriple, bounds_report
from .compare import asymptotic_sweep, fraction_text, table1, table3
from .linegraph import CapacityError, ConstructionParams, DEFAULT_VERTEX_CAP
from .scheme import (
    DEFAULT_SUBFILE_LEN,
    DecodeError,
    SchemaError,
    SchemeInstance,
    build_scheme,
    deserialize,
    document_chunks,
    packet_trace_bytes,
    run_trials,
)
from .subspaces import InvariantError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_VALIDATION = 5


def _default_cap() -> int:
    env = os.environ.get("PGCACHE_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PGCACHE_CAP must be an integer, got {env!r}") from None
    return DEFAULT_VERTEX_CAP


def _add_construction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", type=int, required=True, help="ambient dimension")
    parser.add_argument("-m", type=int, required=True, help="subfile set size minus one")
    parser.add_argument("-t", type=int, required=True, help="user space dimension")
    parser.add_argument("-q", type=int, required=True, help="field size (prime power)")


def cmd_params(args) -> int:
    params = ConstructionParams(k=args.k, m=args.m, t=args.t, q=args.q)
    if args.format == "json":
        print(json.dumps({
            "users": params.users,
            "subpacketization": params.subpacketization,
            "missing_per_user": params.missing_per_user,
            "missing_per_subfile": params.missing_per_subfile,
            "group_size": params.group_size,
            "cached_fraction": str(params.cached_fraction),
            "rate": str(params.rate),
            "transmissions": params.transmissions,
        }, indent=2))
    else:
        print(f"K (users)               = {params.users}")
        print(f"F (subpacketization)    = {params.subpacketization}")
        print(f"D (missing per user)    = {params.missing_per_user}")
        print(f"c (missing per subfile) = {params.missing_per_subfile}")
        print(f"d (group size / gain)   = {params.group_size}")
        print(f"M/N (cached fraction)   = {fraction_text(params.cached_fraction)}")
        print(f"R (rate)                = {fraction_text(params.rate)}")
        print(f"R*F (transmissions)     = {params.transmissions}")
    return EXIT_OK


def _write_atomically(path: str, chunks) -> None:
    """Write the chunks to a temporary file beside `path`, then rename it
    onto `path`: a failure part way leaves no partial file and keeps an
    existing one.  A path that names no regular file, such as /dev/stdout
    or a pipe, is written in place.  A replaced file keeps its mode, and a
    file this process may not write is refused as open() refuses it; the
    replacement is a new file, so hard links to the old one keep the old
    bytes."""
    try:
        st = os.stat(path)  # through symlinks and /dev/fd links to what they name
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    if st is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask  # what open() gives a new file
    elif os.access(path, os.W_OK):
        mode = stat.S_IMODE(st.st_mode)
    else:
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    real = os.path.realpath(path)  # the file a symlink names is the one replaced
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real),
                                   prefix=f".{os.path.basename(real)}.", suffix=".tmp")
    except OSError as exc:
        exc.filename = path  # name the target, not the temporary file
        raise
    try:
        with open(fd, "wb") as fh:
            os.fchmod(fd, mode)
            fh.writelines(chunks)
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_construct(args) -> int:
    cp = ConstructionParams(k=args.k, m=args.m, t=args.t, q=args.q)
    cap = args.cap if args.cap is not None else _default_cap()
    instance = build_scheme(cp, max_vertices=cap)
    _write_atomically(args.output, document_chunks(instance))
    p = instance.params
    print(f"wrote {args.output}: K={p.users} F={p.subpacketization} "
          f"D={p.missing_per_user} c={p.missing_per_subfile} d={p.group_size} "
          f"R={p.rate} packets={instance.delivery.num_cliques}")
    return EXIT_OK


def _load_scheme(fh) -> SchemeInstance:
    """deserialize over an mmap of the file.  An empty file cannot be
    mapped, nor can a pipe, so those are read instead."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode) or info.st_size == 0:
        return deserialize(fh.read())
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
        return deserialize(view)


def cmd_simulate(args) -> int:
    with open(args.scheme, "rb") as fh:
        instance = _load_scheme(fh)
    extra = None
    if args.fixed_demands:
        k = instance.params.users
        n = args.files if args.files is not None else k
        extra = [[0] * k]
        if n >= k:
            extra.append(list(range(k)))
    report = run_trials(
        instance,
        trials=args.trials,
        seed=args.seed,
        num_files=args.files,
        subfile_len=args.subfile_len,
        extra_demands=extra,
        keep_round0=bool(args.trace),
    )
    ok = report.trials * report.users - report.failures
    print(f"trials          = {report.trials}")
    print(f"decode success  = {ok}/{report.trials * report.users} user-rounds")
    print(f"packets/round   = {report.packet_count}")
    print(f"measured R*F    = {report.packet_count}")
    print(f"measured R      = "
          f"{fraction_text(Fraction(report.packet_count, instance.params.subpacketization))}")
    if args.trace:
        with open(args.trace, "wb") as fh:
            fh.write(packet_trace_bytes(report.round0))
        print(f"trace           = {args.trace} ({len(report.round0)} packets)")
    if not report.ok:
        print(f"DECODE FAILURES = {report.failures}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_bounds(args) -> int:
    st = SystemTriple(users=args.K, subpacketization=args.F, missing_per_user=args.D)
    report = bounds_report(st)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    elif args.format == "csv":
        d = report.as_dict()
        keys = list(d.keys())
        print(",".join(keys))
        print(",".join(str(d[k]) for k in keys))
    else:
        bire = report.biregular_bound if report.biregular_bound is not None else "n/a"
        print(f"biregular bound : R*F >= {bire}")
        if report.biregular_note:
            print(f"                  ({report.biregular_note})")
        print(f"pda bound       : R*F >= {report.pda_bound}")
        print(f"cutset bound    : R*F >= {report.cutset_bound} "
              f"(exact {fraction_text(report.cutset_exact)})")
    return EXIT_OK


def cmd_tables(args) -> int:
    table = table1() if args.which == "table1" else table3()
    print(table.to_csv() if args.format == "csv" else table.to_text())
    return EXIT_OK


def cmd_sweep(args) -> int:
    report = asymptotic_sweep(args.q, args.alpha, range(args.start, args.end + 1))
    table = report.to_table()
    print(table.to_csv() if args.format == "csv" else table.to_text())
    print(f"all checks pass: {report.all_ok}")
    return EXIT_OK if report.all_ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgcache",
        description="subspace-geometry coded caching: construct, simulate, bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="closed-form scheme parameters")
    _add_construction_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("construct", help="build a scheme and write its document")
    _add_construction_flags(p)
    p.add_argument("-o", "--output", required=True, help="scheme document path")
    p.add_argument("--cap", type=int, default=None,
                   help="line-graph vertex cap (default PGCACHE_CAP or 10^7)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="run seeded demand rounds on a scheme document")
    p.add_argument("scheme", help="scheme document path")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--files", type=int, default=None,
                   help="files in the store (default: one per user)")
    p.add_argument("--subfile-len", type=int, default=DEFAULT_SUBFILE_LEN)
    p.add_argument("--fixed-demands", action="store_true",
                   help="also run the all-equal and all-distinct demand vectors")
    p.add_argument("--trace", default=None, help="write a binary packet trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="lower bounds for a (K, F, D) triple")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-F", type=int, required=True)
    p.add_argument("-D", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("which", choices=("table1", "table3"))
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("sweep", help="growth checks at fixed alpha")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--start", type=int, required=True, help="first k-t")
    p.add_argument("--end", type=int, required=True, help="last k-t (inclusive)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, DecodeError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
