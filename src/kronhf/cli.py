"""Batch command line interface.

Commands: build, witness, sweep, sl2p, expander, decompose, gamma. Every
command takes --out and --config; witness, sl2p, expander and decompose take
--json, and sl2p and expander take --seed. A --config file sets, by
key=value lines, only the command's options that take a value, each to
one of that option's choices if it has any; any other key or value is a
usage error. Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 guard refusal. All randomness flows from the single --seed
through named substreams so reports replay byte-for-byte.
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
    """The key=value lines of a --config file; a key that is not in keys, the
    value options of the command, or a value outside the key's argparse
    choices is a usage error."""
    out = {}
    if not path:
        return out
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


def _cfg(args, cfgmap, name, default=None):
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    return cfgmap.get(name, default)


def _as_int(name, raw):
    """An integer option value; a malformed one is a usage error, not a traceback."""
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"--{name} must be an integer, got {raw!r}") from None


def _cfg_int(args, cfgmap, name, default=None):
    return _as_int(name, _cfg(args, cfgmap, name, default))


def _emit(args, report: RunReport, text_lines):
    if args.json:
        print(report.to_json())
    else:
        for line in text_lines:
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")


def _write_out(args, content: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)


def _read_module(path, flag) -> KroneckerModule:
    """The module in the file at path; flag names the option that gives it."""
    if path is None:
        raise ValidationError(f"missing {flag}")
    with open(path, "r", encoding="utf-8") as fh:
        return module_from_text(fh.read())


# -- build -----------------------------------------------------------------------


def cmd_build(args, cfgmap) -> int:
    field = field_from_label(_cfg(args, cfgmap, "field", "rational"))
    kind = args.kind
    if kind == "R":
        mono = _cfg(args, cfgmap, "monomial")
        if mono is not None:
            M = build_R(PencilBlock("R_mono", _as_int("monomial", mono)), field)
        else:
            poly = _cfg(args, cfgmap, "poly")
            if poly is None:
                raise ValidationError("build R needs --poly or --monomial")
            coeffs = parse_poly(field, poly)
            q, e = prime_power_parts(field, coeffs)
            M = build_R(PencilBlock("R_poly", poly=q, e=e), field)
    elif kind in ("P", "Q"):
        M, _ = _sweep_module(kind, _cfg_int(args, cfgmap, "n"), None, field)
    else:
        d = _cfg_int(args, cfgmap, "d")
        M, _ = _sweep_module(kind, _cfg_int(args, cfgmap, "t"), d, field)
    text = M.to_text()
    _write_out(args, text)
    print(f"dims {M.dim1}x{M.dim2} defect {M.defect}")
    if not args.out:
        sys.stdout.write(text)
    return 0


# -- witness ----------------------------------------------------------------------


def cmd_witness(args, cfgmap) -> int:
    start = time.perf_counter()
    M = _read_module(_cfg(args, cfgmap, "module"), "--module")
    eps = parse_rational(_cfg(args, cfgmap, "eps"))
    l_override = _cfg(args, cfgmap, "l-override")
    w = witness_for(M, eps,
                    l_override=_as_int("l-override", l_override) if l_override else None)
    rep = verify_witness(M, w)
    payload = witness_to_dict(w, rep)
    report = RunReport("witness",
                       {"module": str(_cfg(args, cfgmap, "module")), "eps": str(eps)},
                       payload, [rep.ok], (time.perf_counter() - start) * 1000)
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
    if family == "theta-post":
        return build_postinjective_theta(d, n, field), f"theta_post(d={d},t={n})"
    raise ValidationError(f"unknown sweep family {family}")


def cmd_sweep(args, cfgmap) -> int:
    family = _cfg(args, cfgmap, "family")
    rng_spec = _cfg(args, cfgmap, "range")
    eps_spec = _cfg(args, cfgmap, "eps-list")
    if rng_spec is None:
        raise ValidationError("sweep needs --range (n or lo:hi:step)")
    if eps_spec is None:
        raise ValidationError("sweep needs --eps-list")
    eps_list = [parse_rational(tok) for tok in eps_spec.split(",")]
    field = field_from_label(_cfg(args, cfgmap, "field", "rational"))
    d = _cfg_int(args, cfgmap, "d", 3)
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
    csv = "\n".join(rows) + "\n"
    _write_out(args, csv)
    if not args.out:
        sys.stdout.write(csv)
    return 0 if all_ok else 1


# -- sl2p --------------------------------------------------------------------------


def _fixture_text(p: int) -> str:
    import importlib.resources as res

    ref = res.files("kronhf").joinpath(f"fixtures/rho_{p}.txt")
    return ref.read_text(encoding="utf-8")


def cmd_sl2p(args, cfgmap) -> int:
    start = time.perf_counter()
    p = _cfg_int(args, cfgmap, "p")
    rep = irreducible_rep(p)  # checks that rho_p(t) is centrally symmetric
    dump = rep_dump_text(p)
    verdicts = [True]
    results = {"p": p, "dim": p, "symmetry": True}
    irr = is_irreducible([rep.mat_s, rep.mat_t])
    results["irreducible"] = irr
    verdicts.append(irr)
    fixture_mode = _cfg(args, cfgmap, "fixture")
    if fixture_mode == "check":
        match = dump == _fixture_text(p)
        results["fixture_match"] = match
        verdicts.append(match)
    if getattr(args, "kazhdan", False):
        seed = _cfg_int(args, cfgmap, "seed", 0)
        trials = _cfg_int(args, cfgmap, "trials", 200)
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
    report = RunReport("sl2p", {"p": p}, results, verdicts,
                       (time.perf_counter() - start) * 1000)
    lines = [f"rho_{p}: dim {p}, irreducible {irr}, symmetry True"]
    if "kazhdan" in results:
        kz = results["kazhdan"]
        lines.append(f"kazhdan bracket [{kz['lower']:.6f}, {kz['upper']:.6f}] "
                     f"alpha {kz['alpha']:.6g}")
    if "fixture_match" in results:
        lines.append(f"fixture match: {results['fixture_match']}")
    _emit(args, report, lines)
    if not args.json and not args.out and fixture_mode != "check":
        sys.stdout.write(dump)
    if args.out and fixture_mode == "dump":
        _write_out(args, dump)
    return 0 if report.ok else 1


# -- expander ------------------------------------------------------------------------


def cmd_expander(args, cfgmap) -> int:
    start = time.perf_counter()
    alpha = parse_rational(_cfg(args, cfgmap, "alpha", "1"))
    if getattr(args, "bounds_only", False):
        results = {
            "alpha": str(alpha),
            "strong_eps_bound": str(nonhf_epsilon_bound(alpha)),
            "weak_eps_bound": str(weak_nonhf_epsilon_bound(alpha)),
        }
        report = RunReport("expander", {"alpha": str(alpha), "bounds_only": True},
                           results, [True], (time.perf_counter() - start) * 1000)
        _emit(args, report, [f"strong {results['strong_eps_bound']} "
                             f"weak {results['weak_eps_bound']}"])
        return 0
    eta = parse_rational(_cfg(args, cfgmap, "eta", "1/2"))
    params = {"eta": str(eta), "alpha": str(alpha)}
    from_p = _cfg(args, cfgmap, "from-sl2p")
    if from_p is not None:
        p = _as_int("from-sl2p", from_p)
        # over a prime field this checks the reduction mod q, not the module over Q
        field = field_from_label(_cfg(args, cfgmap, "field", "rational"))
        M = theta3_counterexample_module(p, field)
        params.update(from_sl2p=p, field=field.label)
    else:
        M = _read_module(_cfg(args, cfgmap, "maps"), "--maps or --from-sl2p")
        want = _cfg(args, cfgmap, "field")
        if want is not None and field_from_label(want) != M.field:
            raise ValidationError(
                f"--field {want} does not match the maps file field {M.field.label}")
    cand = ExpanderCandidate.from_module(M, eta, alpha)
    mode = _cfg(args, cfgmap, "mode", "exhaustive")
    seed = _cfg_int(args, cfgmap, "seed", 0)
    if mode == "exhaustive":
        rep = check_exhaustive(cand, guard=_cfg_int(args, cfgmap, "guard", 10 ** 7))
    elif mode == "sample":
        trials = _cfg_int(args, cfgmap, "trials", 1000)
        rep = check_sampled_rational(cand, trials, seed=sub_seed(seed, "expander"))
    else:
        raise ValidationError(f"unknown mode {mode}")
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
    report = RunReport("expander", {**params, "mode": mode},
                       results, [True], (time.perf_counter() - start) * 1000)
    _emit(args, report, [f"verdict {rep.verdict} worst ratio {rep.worst_ratio} "
                         f"({rep.subspaces_checked} subspaces)"])
    return 0


# -- decompose / gamma -----------------------------------------------------------------


def cmd_decompose(args, cfgmap) -> int:
    start = time.perf_counter()
    M = _read_module(_cfg(args, cfgmap, "module"), "--module")
    blocks = decompose_pencil(M)
    items = sorted((b.describe(), m) for b, m in blocks.items())
    results = {"blocks": [{"block": name, "multiplicity": m} for name, m in items]}
    report = RunReport("decompose", {"module": str(_cfg(args, cfgmap, "module"))},
                       results, [True], (time.perf_counter() - start) * 1000)
    _emit(args, report, [f"{name} x{m}" for name, m in items] or ["zero module"])
    return 0


def cmd_gamma(args, cfgmap) -> int:
    M = _read_module(_cfg(args, cfgmap, "module"), "--module")
    text = export_edges(M)
    _write_out(args, text)
    if not args.out:
        sys.stdout.write(text)
    return 0


# -- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kronhf", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, json=False, seed=False):
        if seed:
            p.add_argument("--seed", default=None)
        # what a --config file may set: each option added so far that takes a
        # value, with its choices (None for any value)
        p.set_defaults(config_keys={a.option_strings[0][2:]: a.choices for a in p._actions
                                    if a.option_strings and a.nargs is None})
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
        if json:
            p.add_argument("--json", action="store_true")

    p = sub.add_parser("build", help="construct a standard module and print its shape")
    p.add_argument("kind", choices=["P", "Q", "R", "theta-pre", "theta-post"])
    p.add_argument("--n", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--monomial", default=None)
    p.add_argument("--field", default=None)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("witness", help="produce and verify a hyperfiniteness witness")
    p.add_argument("--module", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--l-override", default=None)
    common(p, json=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sweep", help="witness sweep over a module family, CSV output")
    p.add_argument("--family", default=None)
    p.add_argument("--range", default=None, help="lo:hi:step")
    p.add_argument("--eps-list", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--d", default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sl2p", help="emit and check the SL(2,p) representation data")
    p.add_argument("--p", default=None)
    p.add_argument("--fixture", choices=["check", "dump"], default=None)
    p.add_argument("--kazhdan", action="store_true")
    p.add_argument("--trials", default=None)
    common(p, json=True, seed=True)
    p.set_defaults(func=cmd_sl2p)

    p = sub.add_parser("expander", help="expansion checks and epsilon bounds")
    p.add_argument("--maps", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--from-sl2p", default=None)
    p.add_argument("--eta", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--mode", default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--guard", default=None)
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
        return args.func(args, _load_config(args.config, args.config_keys))
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
