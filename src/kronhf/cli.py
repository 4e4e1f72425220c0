"""Batch command line interface.

Commands: build, witness, sweep, sl2p, expander, decompose, gamma. Every
command takes --out and --config; witness, sl2p, expander and decompose take
--json, and sl2p and expander take --seed. A --config file sets, by
key=value lines, only the command's options that take a value, each to
one of that option's choices if it has any; any other key or value is a
usage error. An option's value comes from the command line, else from
--config, else from its default in build_parser. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 guard refusal. All randomness
flows from the single --seed through named substreams so reports replay
byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import __version__
from .errors import (CertificateError, DomainError, GuardRefusal, PreconditionError,
                     ShapeError, ValidationError)
from .fields import field_from_label, parse_rational
from .modules import (KroneckerModule, PencilBlock, build_P, build_Q, build_R,
                      module_from_text, parse_poly, prime_power_parts,
                      build_preprojective_theta, build_postinjective_theta)
from .pencil import decompose_pencil
from .quiver import export_edges
from .sl2p import (irreducible_rep, is_irreducible, kazhdan_estimate,
                   rep_dump_text, theta3_counterexample_module)
from .expander import (ExpanderCandidate, check_exhaustive,
                       check_sampled_rational, nonhf_epsilon_bound,
                       weak_nonhf_epsilon_bound)
from .witness import verify_witness, witness_for, witness_to_dict


def sub_seed(seed: int, name: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class RunReport:
    command: str
    config: dict
    results: dict
    verdicts: list = dc_field(default_factory=list)
    wall_ms: float = 0.0
    version: str = __version__

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "verdicts": self.verdicts,
            "wall_ms": round(self.wall_ms, 3),
            "version": self.version,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @property
    def ok(self) -> bool:
        return all(self.verdicts)


def _load_config(path, keys):
    """The key=value lines of a --config file, less blank and # lines; a key
    not in keys, the command's value options, or a value outside the key's
    argparse choices is a usage error."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    unknown = sorted(set(out).difference(keys))
    if unknown:
        raise ValidationError(f"--config sets options this command does not take: "
                              f"{', '.join(unknown)}")
    for key, val in out.items():
        if keys[key] is not None and val not in keys[key]:
            raise ValidationError(f"--config sets {key} to {val!r}; choose from "
                                  f"{', '.join(keys[key])}")
    return out


def _as_int(name, raw):
    """An integer option value; a missing or malformed one is a usage error."""
    if raw is None:
        raise ValidationError(f"missing --{name}")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"--{name} must be an integer, got {raw!r}") from None


def _write_out(args, content: str):
    """content to the --out file, or to stdout when --out is not given."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _emit(args, report: RunReport, text_lines, out_text=None):
    """The report on stdout, as JSON or as text_lines, and to --out out_text,
    or the report as JSON when out_text is None; its wall_ms runs from the
    clock main started."""
    report.wall_ms = (time.perf_counter() - args.start) * 1000
    print(report.to_json() if args.json else "\n".join(text_lines))
    if args.out:
        _write_out(args, report.to_json() + "\n" if out_text is None else out_text)


def _read_module(path, flag) -> KroneckerModule:
    """The module in the file at path; flag names the option that gives it."""
    if path is None:
        raise ValidationError(f"missing {flag}")
    with open(path, "r", encoding="utf-8") as fh:
        return module_from_text(fh.read())


# -- build -----------------------------------------------------------------------


def cmd_build(args) -> int:
    field = field_from_label(args.field)
    kind = args.kind
    if kind == "R":
        if args.monomial is not None:
            M = build_R(PencilBlock("R_mono", _as_int("monomial", args.monomial)), field)
        else:
            if args.poly is None:
                raise ValidationError("build R needs --poly or --monomial")
            coeffs = parse_poly(field, args.poly)
            q, e = prime_power_parts(field, coeffs)
            M = build_R(PencilBlock("R_poly", poly=q, e=e), field)
    elif kind in ("P", "Q"):
        M, _ = _sweep_module(kind, _as_int("n", args.n), None, field)
    else:
        d = _as_int("d", args.d)
        M, _ = _sweep_module(kind, _as_int("t", args.t), d, field)
    print(f"dims {M.dim1}x{M.dim2} defect {M.defect}")
    _write_out(args, M.to_text())
    return 0


# -- witness ----------------------------------------------------------------------


def cmd_witness(args) -> int:
    M = _read_module(args.module, "--module")
    if args.eps is None:
        raise ValidationError("missing --eps")
    eps = parse_rational(args.eps)
    w = witness_for(M, eps, l_override=None if args.l_override is None
                    else _as_int("l-override", args.l_override))
    rep = verify_witness(M, w)
    payload = witness_to_dict(w, rep)
    report = RunReport("witness", {"module": str(args.module), "eps": str(eps)},
                       payload, [rep.ok])
    part_dims = [p.dim for p in w.parts]
    _emit(args, report, [
        f"module dims {M.dim1}x{M.dim2} (dim {M.dim})",
        f"eps {eps}  l_eps {w.l_eps}",
        f"parts {part_dims[:12]}{'...' if len(part_dims) > 12 else ''} ({len(part_dims)} parts)",
        f"dim N = {w.dim_n} / {M.dim}",
        f"verdict {'pass' if rep.ok else 'FAIL ' + str(rep.clause)}",
    ])
    return 0 if rep.ok else 1


# -- sweep -------------------------------------------------------------------------


def _sweep_module(family, n, d, field):
    if family == "P":
        return build_P(n, field), f"P_{n}"
    if family == "Q":
        return build_Q(n, field), f"Q_{n}"
    if family == "R":
        block = PencilBlock("R_poly", poly=(field.coerce(-1),), e=n)
        return build_R(block, field), f"R_(x-1)^{n}"
    if family == "theta-pre":
        return build_preprojective_theta(d, n, field), f"theta_pre(d={d},t={n})"
    return build_postinjective_theta(d, n, field), f"theta_post(d={d},t={n})"


def cmd_sweep(args) -> int:
    family, rng_spec, eps_spec = args.family, args.range, args.eps_list
    if rng_spec is None:
        raise ValidationError("sweep needs --range (n or lo:hi:step)")
    if eps_spec is None:
        raise ValidationError("sweep needs --eps-list")
    eps_list = [parse_rational(tok) for tok in eps_spec.split(",")]
    field = field_from_label(args.field)
    d = _as_int("d", args.d)
    parts_spec = [_as_int("range", x) for x in rng_spec.split(":")] if rng_spec else []
    if len(parts_spec) == 3:
        lo, hi, step = parts_spec
        if step < 1:
            raise ValidationError(f"--range step must be at least 1, got {step}")
        ns = list(range(lo, hi + 1, step))
    elif len(parts_spec) <= 1:
        ns = parts_spec
    else:
        raise ValidationError(f"--range must be n or lo:hi:step, got {rng_spec!r}")
    if family is None:
        raise ValidationError("sweep needs --family")
    rows = ["id,dim,eps,l_eps,parts,removed_fraction,verdict,ms"]
    all_ok = True
    for n in ns:
        M, mid = _sweep_module(family, n, d, field)
        for eps in eps_list:
            t0 = time.perf_counter()
            w = witness_for(M, eps)
            rep = verify_witness(M, w)
            ms = (time.perf_counter() - t0) * 1000
            all_ok = all_ok and rep.ok
            frac = w.notes.get("removed_fraction", Fraction(0))
            verdict = "pass" if rep.ok else "fail"
            if w.notes.get("below_threshold"):
                verdict += ";below-threshold"
            rows.append(
                f"{mid},{M.dim},{eps},{w.l_eps},{len(w.parts)},{frac},{verdict},{ms:.1f}")
    _write_out(args, "\n".join(rows) + "\n")
    return 0 if all_ok else 1


# -- sl2p --------------------------------------------------------------------------


def _fixture_text(p: int) -> str:
    import importlib.resources as res

    ref = res.files("kronhf").joinpath(f"fixtures/rho_{p}.txt")
    return ref.read_text(encoding="utf-8")


def cmd_sl2p(args) -> int:
    p = _as_int("p", args.p)
    rep = irreducible_rep(p)  # checks that rho_p(t) is centrally symmetric
    dump = rep_dump_text(p)
    verdicts = [True]
    results = {"p": p, "dim": p, "symmetry": True}
    irr = is_irreducible([rep.mat_s, rep.mat_t])
    results["irreducible"] = irr
    verdicts.append(irr)
    fixture_mode = args.fixture
    if fixture_mode == "check":
        match = dump == _fixture_text(p)
        results["fixture_match"] = match
        verdicts.append(match)
    if args.kazhdan:
        seed = _as_int("seed", args.seed)
        trials = _as_int("trials", args.trials)
        est = kazhdan_estimate(p, trials=trials, seed=sub_seed(seed, f"sl2p:{p}"))
        eps_bound = weak_eps_bound = "0"
        if est.alpha > 0:
            alpha = Fraction(est.alpha).limit_denominator(10 ** 12)
            eps_bound = str(nonhf_epsilon_bound(alpha))
            weak_eps_bound = str(weak_nonhf_epsilon_bound(alpha))
        results["kazhdan"] = {
            "lower": est.lower, "upper": est.upper, "alpha": est.alpha,
            "dim": est.dim, "eps_bound": eps_bound, "weak_eps_bound": weak_eps_bound,
            "seed": seed, "trials": trials,
        }
        verdicts.append(est.lower > 0)
    report = RunReport("sl2p", {"p": p}, results, verdicts)
    lines = [f"rho_{p}: dim {p}, irreducible {irr}, symmetry True"]
    if "kazhdan" in results:
        kz = results["kazhdan"]
        lines.append(f"kazhdan bracket [{kz['lower']:.6f}, {kz['upper']:.6f}] "
                     f"alpha {kz['alpha']:.6g}")
    if "fixture_match" in results:
        lines.append(f"fixture match: {results['fixture_match']}")
    # with --out, the dump goes there in place of the report only when asked
    # for; without, it follows the text report unless the fixture was checked
    _emit(args, report, lines, dump if fixture_mode == "dump" else None)
    if not args.out and not args.json and fixture_mode != "check":
        _write_out(args, dump)
    return 0 if report.ok else 1


# -- expander ------------------------------------------------------------------------


def cmd_expander(args) -> int:
    alpha = parse_rational(args.alpha)
    if args.bounds_only:
        results = {
            "alpha": str(alpha),
            "strong_eps_bound": str(nonhf_epsilon_bound(alpha)),
            "weak_eps_bound": str(weak_nonhf_epsilon_bound(alpha)),
        }
        report = RunReport("expander", {"alpha": str(alpha), "bounds_only": True},
                           results, [True])
        _emit(args, report, [f"strong {results['strong_eps_bound']} "
                             f"weak {results['weak_eps_bound']}"])
        return 0
    eta = parse_rational(args.eta)
    params = {"eta": str(eta), "alpha": str(alpha)}
    want = args.field
    if args.from_sl2p is not None:
        p = _as_int("from-sl2p", args.from_sl2p)
        # over a prime field this checks the reduction mod q, not the module over Q
        field = field_from_label("rational" if want is None else want)
        M = theta3_counterexample_module(p, field)
        params.update(from_sl2p=p, field=field.label)
    else:
        M = _read_module(args.maps, "--maps or --from-sl2p")
        if want is not None and field_from_label(want) != M.field:
            raise ValidationError(
                f"--field {want} does not match the maps file field {M.field.label}")
    cand = ExpanderCandidate.from_module(M, eta, alpha)
    seed = _as_int("seed", args.seed)
    if args.mode == "exhaustive":
        rep = check_exhaustive(cand, guard=_as_int("guard", args.guard))
    else:
        rep = check_sampled_rational(cand, _as_int("trials", args.trials),
                                     seed=sub_seed(seed, "expander"))
    results = {
        "verdict": rep.verdict,
        "eta": str(eta),
        "alpha": str(alpha),
        "worst_ratio": None if rep.worst_ratio is None else str(rep.worst_ratio),
        "witness": rep.witness.to_text() if rep.witness is not None else None,
        "subspaces_checked": rep.subspaces_checked,
        "seed": seed,
    }
    # a refutation is a successful answer, not a failed verification
    report = RunReport("expander", {**params, "mode": args.mode}, results, [True])
    _emit(args, report, [f"verdict {rep.verdict} worst ratio {rep.worst_ratio} "
                         f"({rep.subspaces_checked} subspaces)"])
    return 0


# -- decompose / gamma -----------------------------------------------------------------


def cmd_decompose(args) -> int:
    M = _read_module(args.module, "--module")
    blocks = decompose_pencil(M)
    items = sorted((b.describe(), m) for b, m in blocks.items())
    results = {"blocks": [{"block": name, "multiplicity": m} for name, m in items]}
    report = RunReport("decompose", {"module": str(args.module)}, results, [True])
    _emit(args, report, [f"{name} x{m}" for name, m in items] or ["zero module"])
    return 0


def cmd_gamma(args) -> int:
    _write_out(args, export_edges(_read_module(args.module, "--module")))
    return 0


# -- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kronhf", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    families = ["P", "Q", "R", "theta-pre", "theta-post"]

    def common(p, *, json=False, seed=False):
        if seed:
            p.add_argument("--seed", default=0)
        # what a --config file may set: each option added so far that takes a
        # value, with its choices (None for any value); main sets the file's
        # values as defaults of this parser p
        p.set_defaults(parser=p,
                       config_keys={a.option_strings[0][2:]: a.choices for a in p._actions
                                    if a.option_strings and a.nargs is None})
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
        if json:
            p.add_argument("--json", action="store_true")

    p = sub.add_parser("build", help="construct a standard module and print its shape")
    p.add_argument("kind", choices=families)
    p.add_argument("--n", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--monomial", default=None)
    p.add_argument("--field", default="rational")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("witness", help="produce and verify a hyperfiniteness witness")
    p.add_argument("--module", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--l-override", default=None)
    common(p, json=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sweep", help="witness sweep over a module family, CSV output")
    p.add_argument("--family", choices=families, default=None)
    p.add_argument("--range", default=None, help="lo:hi:step")
    p.add_argument("--eps-list", default=None)
    p.add_argument("--field", default="rational")
    p.add_argument("--d", default=3)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sl2p", help="emit and check the SL(2,p) representation data")
    p.add_argument("--p", default=None)
    p.add_argument("--fixture", choices=["check", "dump"], default=None)
    p.add_argument("--kazhdan", action="store_true")
    p.add_argument("--trials", default=200)
    common(p, json=True, seed=True)
    p.set_defaults(func=cmd_sl2p)

    p = sub.add_parser("expander", help="expansion checks and epsilon bounds")
    p.add_argument("--maps", default=None)
    # the field of the --from-sl2p reduction (rational if not given), or the
    # field the --maps file must have (not compared if not given)
    p.add_argument("--field", default=None)
    p.add_argument("--from-sl2p", default=None)
    p.add_argument("--eta", default="1/2")
    p.add_argument("--alpha", default="1")
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--trials", default=1000)
    p.add_argument("--guard", default=10 ** 7)
    p.add_argument("--bounds-only", action="store_true")
    common(p, json=True, seed=True)
    p.set_defaults(func=cmd_expander)

    p = sub.add_parser("decompose", help="pencil block multiset of a d=2 module")
    p.add_argument("--module", default=None)
    common(p, json=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gamma", help="coefficient quiver edge list")
    p.add_argument("--module", default=None)
    common(p)
    p.set_defaults(func=cmd_gamma)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.config:
            # the file's values become the command's defaults: the command
            # line still beats them, and they beat the defaults above
            args.parser.set_defaults(**{key.replace("-", "_"): val for key, val in
                                        _load_config(args.config, args.config_keys).items()})
            args = parser.parse_args(argv)
        args.start = time.perf_counter()
        return args.func(args)
    except GuardRefusal as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, DomainError, ShapeError, PreconditionError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
