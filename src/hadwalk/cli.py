"""Command-line driver: simulation tables, verification suites, asymptotic scans.

Outputs are deterministic: identical configurations produce byte-identical
CSV/JSON (fixed field order, floats at 17 significant digits, no timestamps).
Exact amplitudes are emitted as mantissa/half-exponent strings of the form
``m*2^(-t/2)`` so downstream tools can reconstruct exactness; decimal columns
are a convenience.  Tables are written row by row as each row is made, and
the ``simulate`` plot is drawn in one pass over its bars.

``verify`` runs its Jacobi suites in one forked child beside the others when
the process may use two or more CPUs, and all its suites in process
otherwise; the report and every printed line are the same either way.

Exit codes: 0 success, 1 verification failure, 2 I/O or configuration error.
Each command's flags come from one table, ``_commands``.  A flag that does not
parse, and every command's own check of its input, raises ``ValueError``
before an output file is opened; ``main`` prints each such error as one
``configuration error: ...`` line on stderr, and no path raises SystemExit.
If ``simulate`` cannot write its plot, it removes the table that the run
created, so an I/O error on either path leaves no new file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

from . import asymptotics, genfun, jacobi, walk


def _fmt(x: float | str | None) -> str:
    """A float at 17 significant digits; a decimal string (an amplitude
    below the normal floats, ``asymptotics._log_decimal``) as it is."""
    return "" if x is None else x if isinstance(x, str) else format(x, ".17g")


def _exact_str(mantissa: int, t: int) -> str:
    return f"{mantissa}*2^(-{t}/2)"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    state = walk.evolve(walk.initial_state(), args.t)
    if args.orientation == "as-printed":
        state = walk.as_printed(state)
    t, probs = state.t, []
    created = not os.path.lexists(args.out)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "t", "psiL", "psiR", "psiL_dec", "psiR_dec", "prob", "prob_dec"])
        for n in range(-t, t + 1, 2):
            ml, mr = state.mantissa_l(n), state.mantissa_r(n)
            prob = walk.probability(state, n)
            prob_dec = float(prob)
            probs.append((n, prob_dec))  # only the plot reads these back
            writer.writerow([n, t, _exact_str(ml, t), _exact_str(mr, t),
                             _fmt(walk.mantissa_to_float(ml, t)),
                             _fmt(walk.mantissa_to_float(mr, t)),
                             f"{prob.numerator}/{prob.denominator}", _fmt(prob_dec)])
    if args.plot:
        try:
            _write_svg_bars(args.plot, probs, f"occupation probability at t={t}")
        except OSError:
            if created:  # exit 2 leaves no table that this run made
                os.remove(args.out)
            raise
    return 0


def _write_svg_bars(path: str, pairs, title: str) -> None:
    width, height, margin = 800, 400, 45
    lo, hi = min(n for n, _ in pairs), max(n for n, _ in pairs)
    ymax = max(p for _, p in pairs) or 1.0
    span = hi - lo or 1
    bar_w = max(1.0, (width - 2 * margin) / (len(pairs) * 1.5))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for n, p in pairs:
        frac = (n - lo) / span
        x = margin + frac * (width - 2 * margin) - bar_w / 2
        h = (height - 2 * margin) * (p / ymax)
        y = height - margin - h
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{h:.2f}" fill="steelblue"/>')
    parts.append(f'<text x="{margin}" y="{height - margin + 18}" '
                 f'font-family="monospace" font-size="12">{lo}</text>')
    parts.append(f'<text x="{width - margin}" y="{height - margin + 18}" '
                 f'text-anchor="end" font-family="monospace" font-size="12">{hi}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class VerifyConfig(namedtuple("VerifyConfig",
                              "t_max order m_max quad_t_max tol seed inject_fault",
                              defaults=(40, 24, 6, 24, 1e-9, 0, False))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for flag, size in (("--t-max", self.t_max), ("--order", self.order),
                           ("--m-max", self.m_max), ("--quad-t-max", self.quad_t_max)):
            if size < 0:
                raise ValueError(f"verify needs {flag} >= 0, got {size}")
        # the series suites run for order >= 2; their bridge relations need order > m_max
        if 2 <= self.order <= self.m_max:
            raise ValueError(f"verify needs --order > --m-max or --order < 2, got "
                             f"--order {self.order} and --m-max {self.m_max}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"verify needs a finite --tol > 0, got {self.tol}")
        # check_quadrature asks each time's row for tol * 0.1
        if self.quad_t_max and self.tol * 0.1 < asymptotics._TOL_FLOOR:
            raise ValueError(f"verify needs --tol >= {asymptotics._TOL_FLOOR * 10:g} "
                             f"when --quad-t-max > 0, got {self.tol}")
        return self

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _make and _replace run its checks too
        return cls(*iterable)


# Each suite maps the config to its checks' sizes and the checks' ledgers to
# the suite's report entry; it returns (entry, ledgers).


def _passed(detail: str, *ledgers, vacuous: bool = False) -> tuple:
    return {"passed": True, "vacuous": vacuous, "detail": detail}, list(ledgers)


def _failed(witness: dict, detail: str, *ledgers) -> tuple:
    return {"passed": False, "witness": witness, "detail": detail}, list(ledgers)


def _suite_exact_equivalence(cfg: VerifyConfig, cache: walk.WalkCache) -> tuple:
    if cfg.t_max == 0:
        return _passed("t_max=0", vacuous=True)
    ledger = jacobi.check_closed_forms(cache, cfg.t_max)
    if not ledger.passed:
        item, (n, t) = ledger.failures[0]
        return _failed({"n": n, "t": t}, f"{item} != simulator", ledger)
    return _passed(f"all amplitudes equal through t={cfg.t_max}", ledger)


def _suite_symmetry(cfg: VerifyConfig, cache: walk.WalkCache) -> tuple:
    if cfg.t_max == 0:
        return _passed("t_max=0", vacuous=True)
    states = [cache.state(t) for t in range(cfg.t_max + 1)]
    if cfg.inject_fault:
        t_bad = max(1, cfg.t_max // 2)
        bad = states[t_bad]
        psi_r, psi_l = list(bad.psi_r), list(bad.psi_l)
        # flip one mantissa on the parity lattice, where the relations read it:
        # psi_R at position 0 for an even t_bad, psi_L at position 1 for an odd
        # one (psi_R(1) is its own mirror image)
        if t_bad % 2 == 0:
            psi_r[t_bad] += 1
        else:
            psi_l[t_bad + 1] += 1
        states[t_bad] = walk.WalkState(t_bad, tuple(psi_r), tuple(psi_l))
    ledger = jacobi.check_reflections(states)
    if not ledger.passed:
        _, (n, t) = ledger.failures[0]
        return _failed({"n": n, "t": t}, "reflection relation violated", ledger)
    return _passed(f"reflection relations exact through t={cfg.t_max}", ledger)


def _suite_generating_function(cfg: VerifyConfig, cache: walk.WalkCache) -> tuple:
    if cfg.order < 2:
        return _passed(f"order={cfg.order}", vacuous=True)
    chain = genfun.equivalence_ledger(cache, m_max=cfg.m_max, order=cfg.order)
    if not chain.passed:
        item, witness = chain.failures[0]
        return _failed({"item": item, "at": list(witness)},
                       f"{len(chain.failures)} failures of {chain.checked} checks", chain)
    bridges = genfun.check_intermediate_relations(cache, cfg.m_max, cfg.order)
    if not bridges.passed:
        relation, (m, coefficient) = bridges.failures[0]
        return _failed({"relation": relation, "m": m, "coefficient": coefficient},
                       "intermediate relation violated", chain, bridges)
    return _passed(f"{chain.checked} equivalence checks exact", chain, bridges)


def _suite_jacobi_identity(cfg: VerifyConfig, cache: walk.WalkCache) -> tuple:
    m_id = min(cfg.t_max, 20)
    if m_id == 0:
        return _passed("t_max=0", vacuous=True)
    identities = jacobi.check_jacobi_identities(m_max=m_id, uv_max=6)
    if not identities.passed:
        name, params = identities.failures[0]
        return _failed({"identity": name, "params": [str(p) for p in params]},
                       f"{len(identities.failures)} failures of {identities.checked}",
                       identities)
    kmax = min(cfg.order, 20)
    if kmax < 2:
        return _passed(f"{identities.checked} identity instances exact "
                       "(series sweep skipped)", identities)
    coefficients = genfun.check_jacobi_generating(k_max=kmax, rs_max=3)
    if not coefficients.passed:
        _, (k, r, s) = coefficients.failures[0]
        return _failed({"k": k, "r": r, "s": s},
                       "generating-function coefficient mismatch", identities, coefficients)
    return _passed(f"{identities.checked} identity instances exact",
                   identities, coefficients)


def _suite_quadrature(cfg: VerifyConfig, cache: walk.WalkCache) -> tuple:
    if cfg.quad_t_max == 0:
        return _passed("quad_t_max=0", vacuous=True)
    ledger = asymptotics.check_quadrature(cache, cfg.quad_t_max, tol=cfg.tol)
    if not ledger.passed:
        _, (n, t, deviation) = ledger.failures[0]
        return _failed({"n": n, "t": t}, f"|numeric - exact| = {deviation:.3e}", ledger)
    return _passed(f"max deviation {ledger.worst:.3e} through t={cfg.quad_t_max}", ledger)


# ledger item -> (report witness key, report detail)
_LAGRANGE_FAILURES = {
    "tree function": ("n", "tree-function coefficient mismatch"),
    "tree function squared": ("n", "squared tree-function coefficient mismatch"),
    "w == z phi(w)": ("trial", "w != z*phi(w) for randomized phi"),
    "implicit series": ("case", "implicit series != 1/sqrt(1+z^2)"),
}


def _suite_lagrange(cfg: VerifyConfig, cache: walk.WalkCache) -> tuple:
    if cfg.order < 2:
        return _passed(f"order={cfg.order}", vacuous=True)
    ledger = genfun.check_lagrange(order=max(4, min(cfg.order, 20)),
                                   implicit_order=max(cfg.order, 4), seed=cfg.seed)
    if not ledger.passed:
        item, witness = ledger.failures[0]
        key, detail = _LAGRANGE_FAILURES[item]
        return _failed({key: witness}, detail, ledger)
    return _passed("inversion checks exact", ledger)


_SUITES = {
    "exact-equivalence": _suite_exact_equivalence,
    "generating-function": _suite_generating_function,
    "jacobi-identity": _suite_jacobi_identity,
    "lagrange": _suite_lagrange,
    "quadrature": _suite_quadrature,
    "symmetry": _suite_symmetry,
}


# The suites that run_verify hands to a forked child when two CPUs are usable.
# At the defaults, in process on a 2 vCPU VM, this half takes ~17.5 ms
# (jacobi-identity 14, exact-equivalence 2, symmetry 0.6) and the caller's
# ~18 ms (lagrange 10, generating-function 4.5, quadrature 4).
_FORKED_SUITES = ("exact-equivalence", "jacobi-identity", "symmetry")


def _run_suites(cfg: VerifyConfig, names) -> dict:
    """{name: (entry, ledgers, wall seconds)}, the suites run one after
    another on one WalkCache."""
    cache = walk.WalkCache()
    results = {}
    for name in names:
        start = time.perf_counter()
        entry, ledgers = _SUITES[name](cfg, cache)
        results[name] = entry, ledgers, time.perf_counter() - start
    return results


def _two_cpus_usable() -> bool:
    """Whether this process may run on two or more CPUs; False where the OS
    does not say (no ``os.sched_getaffinity``, as on macOS and Windows)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _current_cpu() -> int | None:
    """The CPU this process runs on now (field 39 of /proc/self/stat), or
    None where that file cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in verify's forked child."""


def _run_forked(cfg: VerifyConfig, names) -> dict:
    """``_run_suites`` over ``names``: those in _FORKED_SUITES in a forked
    child, the rest here at the same time.

    The child moves itself off the caller's CPU: a kernel may leave a forked
    child on its parent's CPU, and then the halves take turns, not run side
    by side.  It pickles its results, or the exception its half raised with
    that exception's traceback text, into one pipe, and the exception is
    raised again here with the text as its cause (``_ChildTraceback``, as
    concurrent.futures does), so a failure shows the child's frames.  A child
    that exits without sending a result raises OSError.  The child is reaped
    on every path."""
    import pickle  # only verify moves objects between processes

    others = set()
    if hasattr(os, "sched_setaffinity"):
        others = os.sched_getaffinity(0) - {_current_cpu()}
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            if others:
                os.sched_setaffinity(0, others)
            try:
                result = _run_suites(cfg, [name for name in names if name in _FORKED_SUITES])
            except BaseException as exc:  # sent to the caller, which raises it again
                import traceback
                result = exc, traceback.format_exc()
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            # never return into the caller's code, nor flush its inherited stdio
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            results = _run_suites(cfg, [name for name in names if name not in _FORKED_SUITES])
            payload = pipe.read()  # to EOF before waitpid: it may exceed the pipe buffer
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status or not payload:
        raise OSError(f"verify's forked suites exited with status {status} "
                      "without sending a result")
    theirs = pickle.loads(payload)
    if isinstance(theirs, tuple):
        exc, text = theirs
        raise exc from _ChildTraceback(text)
    results.update(theirs)
    return results


def run_verify(cfg: VerifyConfig) -> tuple:
    """Run the suites and report them in name order.

    When this process may use two or more CPUs, the suites in _FORKED_SUITES
    run in a forked child beside the others (``_run_forked``), each half on
    its own WalkCache; otherwise all run here one after another.  Either
    path gives the same report.  Returns the JSON report, per suite the
    ledgers behind its entry, and per suite its wall seconds.
    """
    names = sorted(_SUITES)
    results = (_run_forked if _two_cpus_usable() else _run_suites)(cfg, names)
    entries = {name: results[name][0] for name in names}
    report = {
        "config": cfg._asdict(),
        "suites": entries,
        "all_passed": all(e["passed"] for e in entries.values()),
    }
    return (report, {name: results[name][1] for name in names},
            {name: results[name][2] for name in names})


def _ledger_summary(ledgers: list) -> str:
    parts = [f"checked={sum(led.checked for led in ledgers)}"]
    parts += [f"worst={led.worst:.3e} tol={led.tol:g}"
              for led in ledgers if led.tol is not None]
    return " ".join(parts)


def cmd_verify(args) -> int:
    cfg = VerifyConfig(**{name: getattr(args, name) for name in VerifyConfig._fields})
    report, ledgers, seconds = run_verify(cfg)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.report == "-":
        sys.stdout.write(payload)
        summary = sys.stderr  # stdout holds only the JSON
    else:
        with open(args.report, "w") as fh:
            fh.write(payload)
        summary = sys.stdout
    for name, entry in report["suites"].items():
        status = "PASS" if entry["passed"] else "FAIL"
        vac = " (vacuous)" if entry.get("vacuous") else ""
        print(f"{status:4s} {name}{vac}: {entry['detail']}; "
              f"{_ledger_summary(ledgers[name])}", file=summary)
    for name, wall in seconds.items():
        print(f"time {name}: {wall:.3f} s", file=sys.stderr)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def cmd_asymptotics(args) -> int:
    try:
        ts = sorted({int(x) for x in args.t.split(",") if x.strip()})
    except ValueError:
        raise ValueError(f"asymptotics needs --t as comma-separated integers, "
                         f"got {args.t!r}") from None
    if not ts or ts[0] <= 0 or ts[-1] > sys.float_info.max:
        raise ValueError("asymptotics needs positive --t values within the float range")
    grid = (args.alpha_start, args.alpha_stop, args.alpha_step)
    if not (all(map(math.isfinite, grid)) and args.alpha_step > 0
            and args.alpha_stop >= args.alpha_start):
        raise ValueError("asymptotics needs finite --alpha-start, --alpha-stop and "
                         "--alpha-step, --alpha-step > 0 and --alpha-stop >= --alpha-start")
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise ValueError(f"asymptotics needs a finite --eps >= 0, got {args.eps}")
    span = (args.alpha_stop - args.alpha_start) / args.alpha_step
    # alpha is monotone in the row index, so its extremes are the first and last rows
    last = (args.alpha_start + round(span) * args.alpha_step if math.isfinite(span)
            else math.inf)
    if not all(math.isfinite(a * ts[-1]) for a in (args.alpha_start, last)):
        raise ValueError("asymptotics needs an alpha grid whose row count and alpha * t "
                         "are finite floats")
    count = int(round(span)) + 1
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "t", "exact", "asymptotic", "rel_error", "btilde", "b",
                         "n", "status"])
        for t in ts:
            for i in range(count):
                alpha = args.alpha_start + i * args.alpha_step
                n = int(round(alpha * t))
                if (n - t) % 2:
                    n += 1 if alpha * t >= n else -1
                # |alpha| > 1 puts n outside the light cone
                mantissa = jacobi.psi_closed_r(n, t) if abs(n) <= t else 0
                exact, asym, rel_error, btilde, b, status = asymptotics._decay_row(
                    n, t, mantissa, args.eps)
                writer.writerow([_fmt(alpha), t, _fmt(exact), _fmt(asym), _fmt(rel_error),
                                 _fmt(btilde), _fmt(b), n, status])
    return 0


# ---------------------------------------------------------------------------
# flags / entry point
# ---------------------------------------------------------------------------


def _orientation(text: str) -> str:
    if text not in walk.ORIENTATIONS:
        raise ValueError(text)
    return text


# what each flag parser accepts, for the error that names a refused value
_KINDS = {int: "an integer", float: "a float", _orientation: " or ".join(walk.ORIENTATIONS)}


def _commands() -> dict:
    """command -> (function, help line, {flag: (parse, default)}); a default
    of ``...`` marks a required flag, and ``bool`` a switch that takes no
    value.  Built per call, so that a ``cmd_*`` rebound on the module (as
    perfbench's tracer does) is the one that runs."""
    verify = {"--" + name.replace("_", "-"): (type(default), default)
              for name, default in VerifyConfig._field_defaults.items()}
    verify["--report"] = (str, ...)
    return {
        "simulate": (cmd_simulate, "exact amplitude/probability table",
                     {"--t": (int, ...), "--orientation": (_orientation, "canonical"),
                      "--out": (str, ...), "--plot": (str, None)}),
        "verify": (cmd_verify, "run the exact verification suites", verify),
        "asymptotics": (cmd_asymptotics, "decay-region error table",
                        {"--alpha-start": (float, ...), "--alpha-stop": (float, ...),
                         "--alpha-step": (float, ...), "--t": (str, ...),
                         "--eps": (float, 1e-3), "--out": (str, ...)}),
    }


def _usage(commands: dict) -> int:
    lines = ["usage: hadwalk COMMAND [--flag VALUE | --flag=VALUE | --switch]...",
             "Exact and asymptotic laboratory for the Hadamard walk on the line"]
    for name, (_, help_line, flags) in commands.items():
        lines += [f"\n{name}: {help_line}"] + [
            f"  {flag} " + ("(required)" if default is ... else f"(default {default})")
            for flag, (_, default) in flags.items()]
    print("\n".join(lines))
    return 0


def parse_args(argv: list) -> tuple:
    """(function, namespace) from ``COMMAND [--flag VALUE | --flag=VALUE | --switch]...``.

    The last repeated flag wins; a separated value may start with ``-``
    (``--eps -inf``), not ``--``.  ``-h``/``--help``, alone or after a command,
    gives ``_usage`` and what it prints.  Other bad tokens raise ValueError."""
    commands = _commands()
    if argv[:1] in (["-h"], ["--help"]):
        return _usage, commands
    if not argv or argv[0] not in commands:
        raise ValueError(f"hadwalk needs a command ({', '.join(commands)}), got "
                         + (repr(argv[0]) if argv else "none"))
    command, tokens = argv[0], iter(argv[1:])
    func, _, flags = commands[command]
    given = {flag: default for flag, (_, default) in flags.items()}
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag in ("-h", "--help") and not eq:
            return _usage, {command: commands[command]}
        if flag not in flags:
            raise ValueError(f"{command} has no flag {flag!r}")  # repr: one line
        parse = flags[flag][0]
        if parse is bool:
            if eq:
                raise ValueError(f"{command} {flag} is a switch and takes no value")
            given[flag] = True
            continue
        if not eq:
            text = next(tokens, "--")  # the end of argv reads as a missing value
            if text.startswith("--"):
                raise ValueError(f"{command} needs a value after {flag}")
        try:
            given[flag] = parse(text)
        except ValueError:
            raise ValueError(f"{command} needs {flag} as {_KINDS[parse]}, "
                             f"got {text!r}") from None
    missing = [flag for flag, value in given.items() if value is ...]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    return func, SimpleNamespace(**{flag[2:].replace("-", "_"): value
                                    for flag, value in given.items()})


def main(argv=None) -> int:
    try:
        func, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
