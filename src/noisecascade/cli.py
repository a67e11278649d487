"""
Command-line front end: single-point steady states, sweeps, counting
statistics, optomechanical mapping and design helpers.

The ``--set NAME=VALUE`` values of ``steady-state`` and ``fcs`` (cascaded
model) and of ``map-om`` and ``design`` (optomech model) go through
sweeps.check_params, the check of a sweep config's ``params``, so both
report the same first error.

Each command returns its standard output as parts, and ``main`` writes them
through ``_write_stdout``, so a reader that closes the pipe early
(``| head``) ends every command with exit code 0 and nothing on stderr.
The JSON commands return their text and a line end, as ``print`` writes
them: ``fcs`` exactly the text ``json.dumps(result, indent=2)`` would give,
written in one pass from a template (``_fcs_json``), the others
``json.dumps`` itself.  ``sweep`` returns the byte parts of its output, made
block by block (``sweeps.iter_blocks`` into ``sweeps.emit_parts``), so it
holds one block of the grid at a time; with ``--out`` it returns no part and
writes them to a temporary file beside the target, renamed onto it after the
last part.

On its first call in a process ``main`` raises the C heap's trim and mmap
thresholds (``_keep_freed_memory``), so that the memory one sweep block
frees serves the next instead of being returned to the kernel.

``main`` reads a command's arguments with that command's parser alone and
uses the top-level parser of ``build_parser`` only when ``argv[0]`` names no
command; its messages and exit codes are the top-level parser's.

Exit codes: 0 on success, 2 on bad input (``cascaded.SchemaError``, or an
OSError of a file), 3 when a single-point command has no answer
(``cascaded.NumericalError``: a design without both couplings, or a kernel
reason, which ``raise_first`` raises with the ``REASONS`` message of the
first failed item).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import stat
import sys as _sys
from collections.abc import Iterable

import numpy as np

from .cascaded import (
    CascadedParams,
    NumericalError,
    SchemaError,
    build_system,
    disconnected_baseline,
    linear_response,
    occupations,
    raise_first,
)
from .counting import flow_cumulants, large_deviation
from .optomech import OmParams, design_nonreciprocal, map_to_cascaded, preset_microwave
from .sweeps import (
    MAX_COUNT,
    cascaded_from_raw,
    check_params,
    emit_parts,
    iter_blocks,
    parse_config,
)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parse_sets(model: str, pairs: list[str]) -> dict:
    """The ``--set`` values of ``model`` as a config's params: F stays a string.

    A name may be set once, as a sweep config may sweep a variable once.
    """
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"expected name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        if name in out:
            raise SchemaError(f"{name}: set twice")
        try:
            out[name] = value if name == "F" else float(value)
        except ValueError as exc:
            raise SchemaError(f"{name}: not a number: {value!r}") from exc
    check_params(model, out, prefix="")
    return out


def _json_text(obj) -> list[str]:
    """The parts that ``print(json.dumps(obj, indent=2))`` writes."""
    return [json.dumps(obj, indent=2), "\n"]


@np.errstate(invalid="ignore")  # dn of an inf n and an inf m is NaN: null
def _cmd_steady_state(args: argparse.Namespace) -> list[str]:
    p = cascaded_from_raw(_parse_sets("cascaded", args.set))
    sys = build_system(p)
    W, _, reason = linear_response(sys)
    raise_first(reason, margin=sys.margin)
    (n1, n2), (m1, m2) = occupations(W, sys.nbar), disconnected_baseline(p)
    out = {"n1": n1, "n2": n2, "m1": m1, "m2": m2, "dn1": n1 - m1, "dn2": n2 - m2}
    # a mode without a baseline (kappa_i + gamma_i = 0) reads null, as a sweep's blank cell
    return _json_text({k: v if np.isfinite(v) else None for k, v in out.items()})


def _cmd_sweep(args: argparse.Namespace) -> Iterable[bytes]:
    with open(args.config, "rb") as fh:
        cfg = parse_config(fh.read())
    if args.format:
        cfg = dataclasses.replace(cfg, format=args.format)
    parts = emit_parts(iter_blocks(cfg), cfg)
    if not args.out:
        return parts
    _write_file(args.out, parts)
    return ()


def _write_stdout(parts: Iterable[str | bytes]) -> None:
    """Write ``parts`` to standard output as each is made: text to the text
    stream, bytes to its buffer.  A reader that closes the pipe early
    (``| head``) ends the command without an error."""
    stdout = _sys.stdout
    try:
        for part in parts:
            if isinstance(part, str):
                stdout.write(part)
            else:
                stdout.buffer.write(part)
        stdout.flush()
    except BrokenPipeError:
        # the interpreter's last flush must not meet the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)


def _write_file(path: str, parts) -> None:
    """Write ``parts`` to the file ``path`` as each is made.

    A regular file, or a new one, is written to a new temporary file beside
    it (beside the file a link names), which replaces it after the last
    part: a failed sweep leaves the file as it was and no temporary file.
    The file gets the mode that ``open`` gives a new one, or keeps its own.
    Any other file, such as a device or a pipe, is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.writelines(parts)
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:  # O_EXCL: never through a file or link that is already there
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(parts)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _cmd_fcs(args: argparse.Namespace) -> list[str]:
    if not 0 <= args.s_points <= MAX_COUNT or not np.isfinite([args.s_min, args.s_max]).all():
        raise SchemaError(f"--s-points must be from 0 to {MAX_COUNT}, --s-min and --s-max finite")
    if abs(args.s_max - args.s_min) > _sys.float_info.max:  # linspace would overflow
        raise SchemaError("--s-max - --s-min overflows the float range")
    p = cascaded_from_raw(_parse_sets("cascaded", args.set))
    sys = build_system(p)
    (eta1, eta2), reason = flow_cumulants(args.channel, sys)
    raise_first(reason, margin=sys.margin, channel=args.channel)  # before theta
    s_values = np.linspace(args.s_min, args.s_max, args.s_points)
    theta, reason = large_deviation(args.channel, s_values, sys)
    raise_first(reason, s=s_values)
    text = _fcs_json(args.channel, s_values.tolist(), theta.tolist(), float(eta1), float(eta2))
    return [text, "\n"]


def _fcs_json(channel: int, s: list[float], theta: list[float], eta1: float, eta2: float) -> str:
    """The text ``json.dumps(result, indent=2)`` gives for the fcs result, in one pass.

    With ``indent``, json runs its pure-Python encoder, which costs several
    times this template.  Every number here is finite (theta and the
    cumulants fail first, and s is checked), and json writes a finite float
    as ``float.__repr__``, which ``!r`` of a float gives too.
    """
    points = ",".join(
        f'\n    {{\n      "s": {x!r},\n      "theta": {t!r}\n    }}' for x, t in zip(s, theta)
    )
    points = f"[{points}\n  ]" if points else "[]"  # json writes an empty list as []
    return (
        f'{{\n  "channel": {channel},\n  "theta": {points},\n  "eta1_trace": {eta1!r},\n'
        f'  "cumulants": {{\n    "1": {eta1!r},\n    "2": {eta2!r}\n  }}\n}}'
    )


def _cascaded_dict(p: CascadedParams) -> dict:
    """Field values of ``p`` for JSON, with F as [re, im]."""
    out = {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}
    out["F"] = [out["F"].real, out["F"].imag]
    return out


def _cmd_map_om(args: argparse.Namespace) -> list[str]:
    cp = map_to_cascaded(OmParams(**_parse_sets("optomech", args.set)))
    out = _cascaded_dict(cp)
    out["F_residual"] = abs(complex(cp.F))
    return _json_text(out)


def _cmd_design(args: argparse.Namespace) -> list[str]:
    d = design_nonreciprocal(OmParams(**_parse_sets("optomech", args.set)))
    return _json_text({"j_star": d.j_star, "phi_star": d.phi_star, "residual": d.residual})


def _cmd_preset(args: argparse.Namespace) -> list[str]:
    if args.name != "microwave":
        raise SchemaError(f"unknown preset {args.name!r}")
    p = preset_microwave()
    out = dataclasses.asdict(p)
    if args.mapped:
        out = {"preset": out, "mapped": _cascaded_dict(map_to_cascaded(p))}
    return _json_text(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisecascade",
        description="Non-reciprocal thermal-noise transport simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ss = sub.add_parser("steady-state", help="single-point occupations")
    ss.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    ss.set_defaults(func=_cmd_steady_state)

    sw = sub.add_parser("sweep", help="run a sweep from a JSON config")
    sw.add_argument("config")
    sw.add_argument("--format", choices=("csv", "json"), default=None)
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=_cmd_sweep)

    fc = sub.add_parser("fcs", help="counting statistics for one channel")
    fc.add_argument("channel", type=int, choices=(1, 2, 3))
    fc.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    fc.add_argument("--s-min", type=float, default=-0.01)
    fc.add_argument("--s-max", type=float, default=0.01)
    fc.add_argument("--s-points", type=int, default=11)
    fc.set_defaults(func=_cmd_fcs)

    mo = sub.add_parser("map-om", help="map optomechanical to cascaded parameters")
    mo.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    mo.set_defaults(func=_cmd_map_om)

    de = sub.add_parser("design", help="non-reciprocity design point")
    de.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    de.set_defaults(func=_cmd_design)

    pr = sub.add_parser("preset", help="print a named parameter preset")
    pr.add_argument("name")
    pr.add_argument("--mapped", action="store_true")
    pr.set_defaults(func=_cmd_preset)

    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of ``main`` and its commands' own parsers by name, built
    on the first call and reused for the process.

    ``main`` reads a command's arguments with that command's parser alone,
    so each token is classified once; the top-level parser runs only when
    ``argv[0]`` names no command (no arguments, ``-h``, an unknown command).
    Reuse is sound because ``parse_args`` leaves a parser as it was:
    ``append`` copies its default list before appending, and each parse
    fills a fresh namespace. A command must not change a list argument in
    place: without ``--set`` it receives the parser's default list itself.
    ``build_parser`` still returns a new parser.
    """
    parser = build_parser()
    (commands,) = parser._subparsers._group_actions  # the top level's one positional
    return parser, commands.choices


@functools.cache
def _keep_freed_memory() -> None:
    """Let the C heap keep the memory a sweep block frees, for the next block and call.

    glibc gives freed memory at the top of its heap back to the kernel past
    a trim threshold and serves large arrays from mappings of their own,
    both moving with what the process allocated before, so each block
    faulted its temporaries in again.  With the trim threshold at 64 MB,
    above one block's peak of about 46 MB (``sweeps.BLOCK_POINTS``), and
    the mmap threshold at 32 MB, glibc's largest, that memory stays in the
    heap: a 101 x 101 README sweep with nine outputs went from 646 minor
    page faults per call to none and ran 5.7 % faster (2-core x86 container),
    and a 601 x 601 sweep whose every point is its own system from 87 700
    faults to 9 100.  The
    trim threshold alone left 220 faults per call; the mmap threshold alone
    raised them to 1 900.  Set on the first ``main`` call, not on import,
    so that a library caller keeps its own allocator settings; where the C
    library has no ``mallopt`` (macOS, Windows) nothing changes.
    """
    if os.name != "posix":  # ctypes cannot open the process itself on Windows
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to open, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser, commands = _parser()
    argv = _sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # what the top-level parser would do, without classifying the tokens twice
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _write_stdout(args.func(args))
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
