"""Command-line front end.

Subcommands:
  moments     exact closed-form moment values
  verify      formula-vs-oracle certification (exact sums over vertex states)
  sample      interval-concentration sampling runs (--theorem t4|t5|isosceles)
  angles      right central angles from a fixed point to random vertices
  polytopes   K-polytope super-regularity
  pyramids    pyramids with a fixed apex over random bases
  visibility  self-visible K-polytope concentration near 1/sqrt(6)
  poles       north/east pole coefficient vectors and complex values
  render      SVG scenes (box_points | poles_circle | random_polytopes | pyramids)

Sampling runs print one summary line with the wall time to stderr and the
payload to stdout.  Exit codes: 0 success/pass, 1 usage error or a closed
stdout, 2 guard violation, 3 a report's verdict is fail or mismatch.  A config file
(`key = value` lines) supplies flags to the chosen subcommand, parsed like
flags: on/off keys take true/false, a repeatable key appends, keys the
subcommand lacks are ignored, and flags on the command line win.
CYCLOBOX_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import groupby

from . import concentration as con
from . import moments as mom
from . import render as ren
from . import reports as rep
from . import visibility as vis
from .core import (
    BoxSpec,
    CyclotomicInt,
    CycloboxError,
    GuardError,
    east_pole,
    euclidean_diameter,
    north_pole,
    north_pole_point,
    require_float_range,
)

EXIT_OK, EXIT_USAGE, EXIT_GUARD, EXIT_FAIL = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc
    if eps <= 0:
        raise argparse.ArgumentTypeError("eps must be positive")
    return eps


def _parse_alpha(spec: str, box: BoxSpec) -> CyclotomicInt:
    if spec == "origin":
        return CyclotomicInt.zero(box.p)
    if spec == "north-pole":
        return north_pole_point(box)
    coeffs = tuple(int(tok) for tok in spec.split(","))
    return CyclotomicInt(box.p, coeffs)


_VALUE_FLAGS = ("--alpha", "--target", "--T", "--eta", "--eps")


def _reads_as_number(tok: str) -> bool:
    """A token that starts with "-" and reads as a number or an alpha, not an option."""
    if tok[:1] != "-":
        return False
    try:
        float(tok)  # -1e-3, -.5, -inf, -nan
    except ValueError:
        return tok[1:2].isdigit()  # -1,0,1 and -1/10
    return True


def _join_values(argv: list) -> list:
    """argv with `--alpha -1,0,1` written as `--alpha=-1,0,1`, and likewise any
    value of a numeric flag (`--target -inf`, `--eta -1e-3`): argparse takes a
    value that starts with "-" for an option unless it is a plain number."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and _reads_as_number(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _seed_of(args) -> int:
    """--seed, else the CYCLOBOX_SEED environment variable, else 0."""
    env = os.environ.get("CYCLOBOX_SEED")
    if args.seed is not None or env is None:
        return 0 if args.seed is None else args.seed
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError(f"CYCLOBOX_SEED must be an integer, got {env!r}") from None


def _load_config(path: str) -> dict:
    """Each key of the file with its values, in file order."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values.setdefault(key.strip().replace("-", "_"), []).append(value.strip())
    return values


_SWITCH = {"true": True, "yes": True, "on": True, "1": True,
           "false": False, "no": False, "off": False, "0": False}


def _config_flags(sub: argparse.ArgumentParser, values: dict) -> list:
    """The config values that `sub` takes, as its own flags, so that argparse
    applies their types, choices and repeats as on the command line."""
    flags = []
    for action in sub._actions:
        raw = values.get(action.dest)
        if raw is None or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # an on/off flag: the last value decides
            switch = _SWITCH.get(raw[-1].lower())
            if switch is None:
                raise ValueError(f"{action.dest} takes true or false, got {raw[-1]!r}")
            flags += [flag] if switch else []
        else:
            # `--flag=value` keeps a value that starts with "-" a value
            flags += [f"{flag}={value}" for value in raw]
    return flags


def _add_common(sub, *, sampling=True):
    sub.add_argument("--p", type=int, required=True, help="odd prime")
    sub.add_argument("--N", type=int, default=1, help="box half-width (default 1)")
    if sampling:
        sub.add_argument("--samples", type=int, default=10_000)
        sub.add_argument("--workers", type=int, default=1)
        sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report file atomically")


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclobox", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None, help="key = value defaults file")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("moments", help="exact moment values")
    _add_common(s, sampling=False)
    s.add_argument("--pairwise", action="store_true", help="vertex-to-vertex moments")
    s.add_argument("--alpha", default="origin")

    s = subs.add_parser("verify", help="formula-vs-oracle certification")
    _add_common(s, sampling=False)
    s.add_argument("--oracle", action="store_true", required=True)
    s.add_argument("--alpha", action="append", default=[],
                   help="extra alpha to certify (repeatable)")

    s = subs.add_parser("sample", help="distance concentration runs")
    _add_common(s)
    s.add_argument("--theorem", choices=("t4", "t5", "isosceles"), default="t5")
    s.add_argument("--eps", type=_parse_eps, default=None, help='rational "a/b"')
    s.add_argument("--eta", type=float, default=None, help="use eps ~ p^-eta")
    s.add_argument("--alpha", default="origin")
    s.add_argument("--exhaustive", action="store_true")

    s = subs.add_parser("angles", help="right central angles")
    _add_common(s)
    s.add_argument("--eps", type=_parse_eps, default=Fraction(1, 10),
                   help="|cos| threshold (rational)")
    s.add_argument("--alpha", default="north-pole")
    s.add_argument("--target", type=float, default=0.95)

    s = subs.add_parser("polytopes", help="K-polytope super-regularity")
    _add_common(s)
    s.add_argument("--K", type=int, default=3)
    s.add_argument("--T", type=float, default=None, help="edge tolerance 1/T")
    s.add_argument("--eta", type=float, default=None, help="use T = p^eta")

    s = subs.add_parser("pyramids", help="pyramids over random bases")
    _add_common(s)
    s.add_argument("--K", type=int, default=3)
    s.add_argument("--eps", type=_parse_eps, default=Fraction(1, 10))
    s.add_argument("--alpha", default="origin", help="apex (in the box)")

    s = subs.add_parser("visibility", help="self-visible polytope concentration")
    _add_common(s)
    s.add_argument("--K", type=int, default=3)
    s.add_argument("--eps", type=_parse_eps, default=Fraction(1, 20))
    s.add_argument("--max-attempts", type=int, default=64,
                   help="retries per tuple; part of the stream layout, so it changes the draws")

    s = subs.add_parser("poles", help="pole vectors and complex values")
    s.add_argument("--q", type=int, required=True, help="any modulus >= 3")
    s.add_argument("--N", type=int, default=1)

    s = subs.add_parser("render", help="SVG scenes")
    s.add_argument("--kind", choices=ren._KINDS, default="box_points")
    s.add_argument("--q", "--p", dest="q", type=int, required=True)
    s.add_argument("--N", type=int, default=1)
    s.add_argument("--K", type=int, default=3)
    s.add_argument("--count", type=int, default=10)
    s.add_argument("--budget", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--size", type=int, default=640)
    s.add_argument("--no-sampling", action="store_true",
                   help="fail instead of sampling when over budget")
    s.add_argument("--out", default=None)

    parser.subcommands = dict(subs.choices)
    return parser


def _write(path, text: str) -> None:
    """The payload to `path` atomically, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        rep.write_atomic(path, text)
    except OSError as exc:
        # the temp file's name is no use to the user: name their path instead
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _verdict(report) -> str:
    return rep.report_to_dict(report)["verdict"]


def _emit(args, reports, stdout: bool = True) -> int:
    """Write the payload to --out (or to stdout, if `stdout`); exit 3 exactly
    when a report's verdict is fail or mismatch."""
    if args.out or stdout:
        _write(args.out, rep.to_json(reports) if args.format == "json" else rep.to_csv(reports))
    listed = reports if isinstance(reports, (list, tuple)) else [reports]
    failed = any(_verdict(r) in ("fail", "mismatch") for r in listed)
    return EXIT_FAIL if failed else EXIT_OK


def _p_power(p: int, eta: float, sign: int = 1) -> float:
    """p ** (sign * eta) for a finite eta; a power that overflows a float or
    underflows to 0 is a usage error."""
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    try:
        power = p ** (sign * eta)
    except OverflowError:
        raise ValueError(f"p ** {sign * eta} overflows a float (p={p})") from None
    if power == 0.0:
        raise ValueError(f"p ** {sign * eta} underflows a float to 0 (p={p})")
    return power


_MOMENT_LABELS = {
    "avg_vertex_pairs": "A(V,V)",
    "fourth_vertex_pairs": "L(V,V)",
    "variance_vertex_pairs": "M(V,V)",
    "avg_point_vertices": "A(alpha,V)",
    "second_moment_point_vertices": "M(alpha,V)",
}


def _cmd_moments(args) -> int:
    box = BoxSpec(args.p, args.N)
    alpha = None if args.pairwise else _parse_alpha(args.alpha, box)
    out = mom.closed_forms(box, alpha)
    code = _emit(args, out, stdout=False)  # before printing: a refused payload prints nothing
    for r in out:
        print(f"{_MOMENT_LABELS[r.kind]} = {r.formula_value}")
    return code


def _cmd_verify(args) -> int:
    box = BoxSpec(args.p, args.N)
    alphas = [CyclotomicInt.zero(box.p), north_pole_point(box)]
    alphas += [_parse_alpha(spec, box) for spec in args.alpha]
    reports = list(mom.oracle_moments(box))
    for alpha in alphas:
        reports += mom.oracle_moments(box, alpha)
    checks = [mom.oracle_cancellation_sums(alpha, box) for alpha in alphas]
    code = _emit(args, reports + checks, stdout=False)  # before printing, as in moments
    for r in reports:
        print(f"{_verdict(r).upper()} {r.kind} p={r.p} N={r.N} value={r.formula_value}")
    for c in checks:
        print(f"{_verdict(c).upper()} cancellation_sums p={c.p} N={c.N} "
              f"alpha=({','.join(map(str, c.alpha))})")
    return code


def _summary(r) -> str:
    if isinstance(r, vis.VisibilityReport):
        warn = " (N/p below 10: asymptotic regime not reached)" if r.np_ratio_warning else ""
        return (f"visibility p={r.p} N={r.N} K={r.K} proportion={r.proportion_near_center:.6f} "
                f"target={r.target:.6f} visible_fraction={r.visible_fraction:.6f} "
                f"verdict={_verdict(r)}{warn}")
    bound = "n/a" if r.bound is None else f"{r.bound:.6f}"
    cos = r.extra.get("median_abs_cos")
    return (f"{r.theorem} p={r.p} N={r.N} trials={r.trials} "
            f"proportion={r.empirical_proportion:.6f} bound={bound} verdict={_verdict(r)}"
            + ("" if cos is None else f" median|cos|={cos:.6f}"))


def _run_report(build, args) -> int:
    """Build one sampling report, print its summary and wall time to stderr,
    and emit its payload."""
    box = BoxSpec(args.p, args.N)
    cfg = con.SamplerConfig(_seed_of(args), args.samples, args.workers)
    t0 = time.perf_counter()
    r = build(args, box, cfg)
    print(f"{_summary(r)} ({time.perf_counter() - t0:.2f}s)", file=sys.stderr)
    return _emit(args, r)


def _sample(args, box, cfg):
    eps = args.eps
    if eps is None:
        eps = Fraction(_p_power(box.p, args.eta, -1)) if args.eta is not None else Fraction(1, 2)
    if args.theorem == "t5":
        return con.vertex_pair_report(box, eps, cfg, exhaustive=args.exhaustive)
    alpha = _parse_alpha(args.alpha, box)
    if args.theorem == "t4":
        return con.theorem4_report(alpha, box, eps, cfg, exhaustive=args.exhaustive)
    if args.exhaustive:
        raise ValueError("--exhaustive applies to --theorem t4 and t5 only")
    return con.isosceles_report(alpha, box, eps, cfg)


def _polytopes(args, box, cfg):
    t_val = args.T
    if t_val is None:
        t_val = _p_power(box.p, args.eta) if args.eta is not None else 2.0
    return con.polytope_report(box, args.K, t_val, cfg)


# each sampling subcommand's report, built as (args, box, cfg) -> report
_BUILDERS = {
    "sample": _sample,
    "angles": lambda a, box, cfg: con.right_angle_report(
        _parse_alpha(a.alpha, box), box, a.eps, cfg, target=a.target),
    "polytopes": _polytopes,
    "pyramids": lambda a, box, cfg: con.pyramid_report(
        _parse_alpha(a.alpha, box), box, a.K, a.eps, cfg),
    "visibility": lambda a, box, cfg: vis.visibility_concentration_report(
        box, a.K, a.eps, cfg, max_attempts=a.max_attempts),
}


def _run_sums(coeffs: tuple, q: int) -> complex:
    """sum a_j w^j, w = exp(2 pi i/q), one closed-form term per run of equal a_j:
    sum_{j=a}^{b} w^j = w^((a+b)/2) sin((b-a+1) pi/q) / sin(pi/q).  A pole has two or
    three runs, so its parts hold about 16 significant digits, where a float sum of
    the q-1 terms is off in the 9th decimal at q = 10^6."""
    require_float_range(max(map(abs, coeffs)) * (q - 1),
                        f"the largest coefficient times q-1={q - 1}")
    z, j = 0j, 1
    for c, run in groupby(coeffs):
        n = len(list(run))
        z += c * math.sin(n * math.pi / q) / math.sin(math.pi / q) * cmath.exp(
            1j * math.pi * (2 * j + n - 1) / q)
        j += n
    return z


def _cmd_poles(args) -> int:
    q, n_box = args.q, args.N
    for name, coeffs in (("NP", north_pole(q, n_box)), ("EP", east_pole(q, n_box))):
        z = _run_sums(coeffs, q)
        # + 0.0 clears the sign of a part that rounds to zero
        re, im = (round(v, 9) + 0.0 for v in (z.real, z.imag))
        # cos(2 pi j/q) is even and sin(2 pi j/q) odd under j -> q - j, so a part is
        # exactly 0 when c_j = -c_(q-j) (real) or c_j = c_(q-j) (imaginary) for every j;
        # the run sums leave it near 0, a few 1e-10 off at q = 10^6
        mirror = coeffs[::-1]
        if all(a == -b for a, b in zip(coeffs, mirror)):
            re = 0.0
        if coeffs == mirror:
            im = 0.0
        print(f"{name}({q}) coeffs = ({', '.join(map(str, coeffs))})")
        print(f"{name}({q}) value  = {re:.9f}{im:+.9f}i")
    if q % 2 == 1:
        print(f"euclidean_diameter = {euclidean_diameter(q, n_box):.7f}")
    return EXIT_OK


def _cmd_render(args) -> int:
    scene = ren.SceneSpec(
        kind=args.kind,
        q=args.q,
        N=args.N,
        K=args.K,
        count=args.count,
        budget=args.budget,
        seed=_seed_of(args),
        allow_sampling=not args.no_sampling,
        size=args.size,
    )
    _write(args.out, ren.render_scene(scene))
    return EXIT_OK


_COMMANDS = {
    "moments": _cmd_moments,
    "verify": _cmd_verify,
    **{name: partial(_run_report, build) for name, build in _BUILDERS.items()},
    "poles": _cmd_poles,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    argv = _join_values(list(sys.argv[1:] if argv is None else argv))

    pre = _Parser(prog="cyclobox", add_help=False)
    pre.add_argument("--config", default=None)
    known, rest = pre.parse_known_args(argv)

    parser = build_parser()
    if known.config and rest and rest[0] in parser.subcommands:
        try:
            flags = _config_flags(parser.subcommands[rest[0]], _load_config(known.config))
        except (OSError, ValueError) as exc:
            print(f"cyclobox: config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # right after the subcommand's name, so that the command line's own flags win
        argv = rest[:1] + flags + rest[1:]

    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # here, so that a closed pipe is met inside the guard
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except GuardError as exc:
        print(f"cyclobox: guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (CycloboxError, ValueError) as exc:
        print(f"cyclobox: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
