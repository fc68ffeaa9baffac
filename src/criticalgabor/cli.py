"""Batch front-end: analyze / synthesize / expand / decompose / rotate /
verify / theta subcommands with a single JSON config and deterministic output.

Exit codes: 0 ok, 1 invariant failure, 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import certainty, expansion, gabor, higher, metaplectic, numerics, phaseplane, verify


@dataclass
class RunConfig:
    T: float = 8.0
    h: float = 1.0 / 64.0
    Q: int = numerics.THETA_TERMS
    dlam: float = 1.0 / 16.0
    box: float = 8.0
    R: int = 6
    delta: float = 2.0
    m: int = 0
    r: float = 4.0
    decomp_dlam: float = 1.0 / 8.0
    margin: float = 4.0
    seed: int = 0

    def validate(self, steps=("dlam", "decomp_dlam")):
        """Raise ValueError on the first field out of range; `steps` are the phase steps held to
        the step rule of the Gabor transform, those the command runs with."""
        for f in fields(self):  # a float field takes a JSON integer too; a boolean is neither kind
            value, number = getattr(self, f.name), type(f.default) is float
            if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
                raise ValueError(f"config: {f.name} must be {'a number' if number else 'an integer'}, got {value!r}")
            if number and not abs(value) <= sys.float_info.max:  # nan, inf or an integer past the float range
                raise ValueError(f"config: {f.name} must be finite, got {value!r}")
        if self.T <= 0 or self.h <= 0:
            raise ValueError("config: T and h must be positive")
        n = 2 * self.T / self.h
        if abs(n - round(n)) > 1e-9:
            raise ValueError("config: 2T/h must be an integer")
        if abs(self.T - round(self.T)) > 1e-9:
            raise ValueError("config: T must be an integer (Zak and sharp sums need integer support)")
        half = 0.5 / self.h
        if abs(half - round(half)) > 1e-9:
            raise ValueError("config: 1/(2h) must be an integer so half-integer points are sampled")
        if self.Q < 1:
            raise ValueError("config: Q must be >= 1")
        if self.dlam <= 0 or self.decomp_dlam <= 0:
            raise ValueError("config: phase-grid spacings must be positive")
        for name in steps:  # the step rule of the Gabor transform, before it runs
            try:
                gabor.step_periods(getattr(self, name), self.h, numerics._sample_count(self.T, self.h))
            except ValueError as exc:
                raise ValueError(f"config: {name}: {exc}") from None
        if self.box <= 0 or self.box > self.T + 1e-9:
            raise ValueError("config: phase box must lie within the grid, 0 < box <= T")
        if self.R < 0:
            raise ValueError("config: cutoff R must be >= 0")
        if self.delta < 0:
            raise ValueError("config: delta must be >= 0")
        if not (0 <= self.m <= higher.MAX_ORDER):
            raise ValueError(f"config: m must be in 0..{higher.MAX_ORDER}")
        if self.r <= 0:
            raise ValueError("config: r must be positive")
        if self.margin < 0:
            raise ValueError("config: margin must be >= 0")
        return self

    def hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# The RunConfig fields each command applies, the one place this is decided.  A command offers a flag
# for these alone; a config file may set any other field only to the value the command runs with.
READS = {
    "analyze": ("T", "h", "dlam", "box", "delta"),
    "synthesize": ("T", "h", "margin"),
    "expand": ("T", "h", "dlam", "box", "R", "delta", "m", "margin"),
    "decompose": ("T", "h", "delta", "m", "r", "decomp_dlam"),
    "rotate": ("T", "h"),
    "theta": ("Q",),
    "verify": ("T", "h", "Q", "dlam", "box", "delta", "m", "decomp_dlam", "seed"),
}


def load_config(args, command: str) -> RunConfig:
    read = READS[command]
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: a config file holds one JSON object")
    unknown = set(values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"config: unknown fields {sorted(unknown)}")
    for name in read:
        override = getattr(args, name, None)
        if override is not None:
            values[name] = override
    # a field the command does not take runs at its default
    for f in fields(RunConfig):
        if f.name in read:
            continue
        value = values.setdefault(f.name, f.default)
        if value != f.default:
            raise ValueError(f"config: {command} cannot apply {f.name}={value!r}; "
                             f"it always runs with {f.name}={f.default!r}")
    return RunConfig(**values).validate(steps=[name for name in ("dlam", "decomp_dlam") if name in read])


def _add_config_flags(p: argparse.ArgumentParser, read):
    """--config plus one flag per RunConfig field in `read`, typed by its default."""
    p.add_argument("--config", help="JSON config file; command-line flags override it")
    for f in (f for f in fields(RunConfig) if f.name in read):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), dest=f.name)


def _strict(value, key="") -> None:
    """Refuse a nan or infinite number anywhere in a JSON payload, naming its key: JSON has neither."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} is {value!r}, which JSON cannot hold")
    for k, v in value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ():
        _strict(v, f"{key}.{k}" if key else str(k))


def _dump_json(payload, path=None):
    _strict(payload)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_signal(path, config: RunConfig) -> numerics.SampledSignal:
    """Read a signal CSV whose grid must match the config's (T, h), onto that exact grid."""
    f = numerics.signal_from_csv(path)
    if abs(f.T - config.T) > 1e-9 or abs(f.h - config.h) > 1e-9:
        raise ValueError(f"{path}: signal grid T={f.T!r}, h={f.h!r} differs from the config grid "
                         f"T={config.T!r}, h={config.h!r}")
    return numerics.SampledSignal(config.T, config.h, f.values)


def cmd_analyze(args, config: RunConfig) -> int:
    f = _load_signal(args.input, config)
    field = gabor.gabor_transform(f, config.box, config.dlam)
    if args.out_field:
        field.to_csv(args.out_field)
    summary = {
        "config_hash": config.hash(),
        "norm": f.norm(),
        "hdelta_norm": expansion.hdelta_norm(f, config.delta, config.box, config.dlam),
        "parseval_ratio": field.mass() / f.norm() ** 2 if f.norm() > 0 else 0.0,
        "grid": {"T": f.T, "h": f.h, "samples": int(f.values.size)},
        "delta": config.delta,
    }
    _dump_json(summary, args.out_summary)
    return 0


def cmd_synthesize(args, config: RunConfig) -> int:
    with open(args.coeffs) as fh:
        coeffs = gabor.CoefficientSet.from_json(fh.read())
    sig = gabor.synthesize(coeffs, config.T, config.h, config.margin)
    sig.to_csv(args.out)
    return 0


def cmd_expand(args, config: RunConfig) -> int:
    # box and dlam reach only the hdelta diagnostic, a moment sum with no phase grid at delta = 2
    for name in ("box", "dlam"):
        value, default = getattr(config, name), getattr(RunConfig, name)
        if config.delta == 2 and value != default:
            raise ValueError(f"config: expand cannot apply {name}={value!r} at delta = 2; "
                             f"it runs with the default {name}={default!r} there")
    f = _load_signal(args.input, config)
    hdelta = expansion.hdelta_norm(f, config.delta, config.box, config.dlam)  # refuses an overflowing delta
    if config.m == 0:
        exp = expansion.relaxed_coefficients(f, config.R)
    else:
        exp = higher.order_m_coefficients(f, config.m, R=config.R)
    # residual diagnostics must synthesize atoms out to |p| = R
    rec = exp.signal(f.T, f.h, max(0.0, min(config.margin, f.T - config.R)))
    coeffs = exp.full_coefficients()
    residual = (f - rec).norm() / f.norm() if f.norm() > 0 else 0.0
    payload = json.loads(coeffs.to_json())
    payload["diagnostics"] = {
        "residual": residual,
        "l2": coeffs.l2(),
        "hdelta": hdelta,
        "config_hash": config.hash(),
    }
    _dump_json(payload, args.out)
    return 0


def cmd_decompose(args, config: RunConfig) -> int:
    f = _load_signal(args.input, config)
    with open(args.domain) as fh:
        K = phaseplane.domain_from_json(fh.read())
    dec = certainty.decompose(f, K, config.r, config.m, config.delta, config.decomp_dlam)
    payload = {
        "config_hash": config.hash(),
        "lattice": json.loads(dec.alpha.to_json()),
        "sharp": json.loads(dec.omega.to_json()),
        "report": dec.report,
    }
    _dump_json(payload, args.out)
    if args.residual_csv:
        dec.residual.to_csv(args.residual_csv)
    return 0


def cmd_rotate(args, config: RunConfig) -> int:
    f = _load_signal(args.input, config)
    out = metaplectic.metaplectic_apply(metaplectic.Rotation(args.angle), f)
    out.to_csv(args.out)
    return 0


def cmd_theta(args, config: RunConfig) -> int:
    if args.z is None and args.x is None:
        raise ValueError("nothing to evaluate: pass --z RE,IM and/or --x X")
    if args.x is not None and not math.isfinite(args.x):  # before anything prints; I(x) is in [0, 1] else
        raise ValueError(f"--x must be finite, got {args.x}")
    if args.z is not None:
        re, im = (float(t) for t in args.z.split(","))
        with np.errstate(over="ignore", invalid="ignore"):  # nan and overflow are refused just below
            val = numerics.theta(complex(re, im), config.Q)
        if not all(map(math.isfinite, (re, im, val.real, val.imag))):
            raise ValueError(f"--z {args.z}: the argument and theta there must be finite")
        print(f"theta({re},{im}) = {val.real!r} {val.imag:+}i")
    if args.x is not None:
        print(f"locint({args.x}) = {numerics.loc_integral(args.x)!r}")
    return 0


def cmd_verify(args, config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    checks = verify.run_checks(config, rng)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        rel = "<=" if c["mode"] == "max" else ">="
        print(f"{status} {c['name']}: measured={c['measured']!r} {rel} tol={c['tol']!r}")
    all_passed = all(c["passed"] for c in checks)
    report = {
        "config": asdict(config),
        "config_hash": config.hash(),
        "seed": config.seed,
        "checks": checks,
        "all_passed": all_passed,
    }
    if args.out:
        _dump_json(report, args.out)
    print(("OK" if all_passed else "FAILED") + f" ({sum(c['passed'] for c in checks)}/{len(checks)} checks)")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="criticalgabor",
                                     description="Gabor analysis at critical density")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        # no abbreviations: a prefix such as --h would otherwise match --help on a command without --h
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        _add_config_flags(p, READS[name])
        p.set_defaults(fn=fn)
        return p

    p = command("analyze", cmd_analyze, "Gabor-transform a signal; emit field CSV + summary JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out-field")
    p.add_argument("--out-summary")

    p = command("synthesize", cmd_synthesize, "synthesize a signal from a coefficient JSON")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out", required=True)

    p = command("expand", cmd_expand, "relaxed (m=0) or order-m expansion of a signal")
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = command("decompose", cmd_decompose, "certainty decomposition over a domain JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--out")
    p.add_argument("--residual-csv")

    p = command("rotate", cmd_rotate, "apply the metaplectic operator of a rotation")
    p.add_argument("--input", required=True)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--out", required=True)

    p = command("theta", cmd_theta, "print theta(z) and the localization integral I(x)")
    p.add_argument("--z", help="complex argument as RE,IM")
    p.add_argument("--x", type=float)

    p = command("verify", cmd_verify, "run the named invariant suite")
    p.add_argument("--out", help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise ValueError(f"{args.command} does not take {' '.join(unknown)}")
        return args.fn(args, load_config(args, args.command))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
