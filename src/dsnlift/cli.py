"""Command line front end.

Three subcommands: ``quantize`` prints the bit depth and quantized gain
table of a network, ``pipeline`` runs a full experiment from a config
file into an output directory, and ``bounds`` estimates the per-node
noise-gap entropies of a network against its kappa reference.

Exit codes: 0 success; 2 an input refused, that is any ConfigError
(malformed or off-schema JSON, a value out of range, an input beyond the
exact numeric range or the enumeration budget, a base code that does not
run on the network), an input path that cannot be read or an output path
that cannot be written, or an input too large for memory; 3 base-code
search exhausted; 4 pruning or lifting produced an empty result.
Human-readable text goes to stdout; machine-readable artifacts are files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .channel import ConfigError, quantize_gain
from .gaussian import verify_genie_bounds
from .lifting import EmptyResult
from .network import _int, load_network
from .pipeline import (
    SearchFailed,
    _as_number,
    _bound_doc,
    canonical_json,
    load_config,
    read_input_text,
    run_pipeline,
    shipped_data_names,
)

__all__ = ["main"]

EXIT_INPUT = 2
EXIT_SEARCH = 3
EXIT_EMPTY = 4


def _fmt_complex(re: float, im: float) -> str:
    sign = "+" if im >= 0 else "-"
    return f"{re:g}{sign}{abs(im):g}j"


def cmd_quantize(args: argparse.Namespace) -> int:
    net = load_network(read_input_text(args.network))
    print(f"bit depth n = {net.bit_depth}")
    print(f"{'edge':<12}{'gain':<24}quantized")
    for e in sorted(net.edges, key=lambda e: (e.src, e.dst)):
        if net.antenna_mode == "scalar":
            print(f"{e.src}->{e.dst:<9}{_fmt_complex(e.gain.re, e.gain.im):<24}"
                  f"{_fmt_complex(*quantize_gain(e.gain))}")
        else:
            for k in (0, 1):
                for l in (0, 1):
                    g = e.gain[k][l]
                    label = f"{e.src}->{e.dst}[{k}{l}]"
                    print(f"{label:<12}{_fmt_complex(g.re, g.im):<24}"
                          f"{_fmt_complex(*quantize_gain(g))}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = load_config(read_input_text(args.config))
    if args.kappa_override is not None:
        kov = _as_number(args.kappa_override, "--kappa-override: kappa_override", 0.0)
        cfg = replace(cfg, kappa_override=kov)
    if args.method is not None or args.seed is not None:
        if cfg.simulate is None:
            raise ConfigError("--method/--seed need a simulate section in the config")
        sim = cfg.simulate
        if args.method is not None:
            sim = replace(sim, method=args.method)
        if args.seed is not None:
            sim = replace(sim, noise_seed=_int(args.seed, "--seed: seed", 0))
        cfg = replace(cfg, simulate=sim)

    result = run_pipeline(cfg, Path(args.out))
    print(f"config hash: {result.config_digest}")
    print(f"scheduling: {result.scheduling}")
    print(f"lifted codewords: {result.lifted_count}")
    print(f"achieved rate: {result.achieved_rate:.6f} bits/use")
    if result.message_error_rate is not None:
        print(f"message error rate: {result.message_error_rate:.6f}")
    print("artifacts:")
    for name in sorted(result.files):
        print(f"  {result.files[name]}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    net = load_network(read_input_text(args.network))
    samples = _int(args.samples, "--samples: samples", 1)
    seed = _int(args.seed, "--seed: seed", 0)
    rep = verify_genie_bounds(net, samples=samples, seed=seed)
    print(f"mode: {rep.mode}  samples: {rep.samples}  seed: {rep.seed}")
    print(f"kappa reference (M={net.node_count - 1}): {rep.kappa_reference:.6f} bits/use")
    print(f"exact complex floored-noise entropy: {rep.z_entropy_exact:.6f} bits (< 8)")
    header = f"{'node':<6}{'ant':<5}{'H[V]':>8}{'H[Z]':>8}{'H[C]':>8}{'sum':>9}{'estimate':>10}{'margin':>9}"
    print(header)
    for e in rep.entries:
        ant = "-" if e.antenna is None else str(e.antenna)
        print(f"{e.node:<6}{ant:<5}{e.h_v:>8.3f}{e.h_z:>8.3f}{e.h_c:>8.3f}"
              f"{e.gap_sum:>9.3f}{e.bound_estimate:>10.3f}{e.margin:>9.3f}")
    ok = rep.all_within_kappa()
    print(f"all within kappa: {'yes' if ok else 'NO'}")
    if args.out is not None:
        Path(args.out).write_text(canonical_json(_bound_doc(rep)))
        print(f"report written: {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsnlift",
        description=(
            "Discrete superposition relay networks: quantized channel model, "
            "code lifting, and noise-gap entropy bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="print bit depth and quantized gain table")
    q.add_argument("--network", required=True,
                   help=f"network file or shipped name ({', '.join(shipped_data_names()) or 'none'})")
    q.set_defaults(func=cmd_quantize)

    p = sub.add_parser("pipeline", help="run an experiment config end to end")
    p.add_argument("--config", required=True, help="experiment config file or shipped name")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--kappa-override", type=float, default=None,
                   help="override the config's kappa_override value")
    p.add_argument("--method", choices=["ml", "threshold"], default=None,
                   help="override the simulation decode method")
    p.add_argument("--seed", type=int, default=None,
                   help="override the simulation noise seed")
    p.set_defaults(func=cmd_pipeline)

    b = sub.add_parser("bounds", help="Monte Carlo noise-gap entropies vs kappa")
    b.add_argument("--network", required=True, help="network file or shipped name")
    b.add_argument("--samples", type=int, default=100_000)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--out", default=None, help="optional path for the JSON report")
    b.set_defaults(func=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except EmptyResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
