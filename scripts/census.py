"""Census of random two-solution configs: each certifies or names its failure.

Draws configs from ``parse_config`` over dims 1-3 (n 16-512 in 1-D, 8-48
in 2-D, 8-24 in 3-D, each capped at --max-n), box 0.5-80, alpha 0.3-0.9,
lam 0.1-1000, mu 1e-4-0.5, p 1.1-1.9, q 2.2-5 and both potential
families; box, lam and mu are log-uniform, the rest uniform.  Configs the
parser refuses are skipped.  Each one left runs ``two_solution_experiment``
and is counted as certified or by its failure class: the stage that
``failed_stage`` names and one reason from the closed list ``REASONS``.

Prints one count per class.  Exits 1 when an exception or a RuntimeWarning
escapes a run, or when a failure names no stage or a reason outside its
list; each such run is printed with its config.

Usage: python scripts/census.py [--seed 0] [--configs 300] [--max-n 512]
"""

import argparse
import math
import random
import re
import sys
import warnings
from collections import Counter

from besselmp import two_solution_experiment
from besselmp.config import ConfigError, build_options, build_spec, parse_config

N_RANGE = {1: (16, 512), 2: (8, 48), 3: (8, 24)}
UNIFORM = {"alpha": (0.3, 0.9), "p": (1.1, 1.9), "q": (2.2, 5.0)}
LOG_UNIFORM = {"box_length": (0.5, 80.0), "lam": (0.1, 1000.0), "mu": (1e-4, 0.5)}

# stage -> {reason: pattern that the text after "<stage>: " must match in full}
_SOLVE = {
    "residual tolerance not reached": r"residual tolerance not reached",
    "polish left its basin": r"converged at energy \S+, above the level \S+ at which the "
                             r"descent handed over: the polish left its basin",
    "descent residual not finite": r"ValueError: the residual at a descent iterate is not "
                                   r"finite .*",
}
REASONS = {
    "probe": {
        "mu not below the budget": r"GeometryError: mu = \S+ is not below the certified "
                                   r"budget .*",
        "ridge bound not finite": r"GeometryError: the ridge bound is not a finite float .*",
        "bump energy infinite": r"GeometryError: the bump exp\(-\|x\|\^2\) has infinite "
                                r"energy .*",
        "no negative bump": r"GeometryError: could not drive the energy negative by scaling "
                            r"a bump",
        "endpoint inside the ridge": r"GeometryError: the far endpoint has .*, not beyond "
                                     r"the certified ridge radius .*",
    },
    "mountain_pass": {
        **_SOLVE,
        "not above the ridge": r"converged at energy \S+, not above the ridge height \S+",
        "endpoint energy not negative": r"ValueError: endpoint e must have negative energy",
        "no top on the ray": r"ValueError: the fibering map along e has no local maximum",
    },
    "local_min": {
        **_SOLVE,
        "no negative energy in the ball": r"no negative energy found inside the ball: .*",
        "beyond the ball": r"converged at \|\|u\|\|_lam = \S+, beyond .*",
    },
    "levels": {
        "ordering": r"ordering m < 0 < eta < c failed",
        "not distinct": r"solutions are not distinct",
    },
}


def draw_text(rng, max_n):
    """One config's key = value text."""
    dim = rng.choice((1, 2, 3))
    lo, hi = N_RANGE[dim]
    hi = min(hi, max_n)
    keys = {"dim": dim, "n": rng.randint(min(lo, hi), hi),
            "potential": rng.choice(("coercive_quadratic", "well"))}
    keys.update({k: rng.uniform(a, b) for k, (a, b) in UNIFORM.items()})
    keys.update({k: math.exp(rng.uniform(math.log(a), math.log(b)))
                 for k, (a, b) in LOG_UNIFORM.items()})
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def classify(failed_stage):
    """The class "stage: reason" of a failure text, or None if it is outside the closed list."""
    stage, sep, rest = (failed_stage or "").partition(": ")
    for reason, pattern in REASONS.get(stage, {}).items() if sep else ():
        if re.fullmatch(pattern, rest, flags=re.DOTALL):
            return f"{stage}: {reason}"
    return None


def run_one(text):
    """(class, escape or None) of one config's run; (None, None) if parse_config refuses it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = parse_config(text, mode="two-solutions")
        except ConfigError:
            return None, None
        try:
            result = two_solution_experiment(build_spec(cfg), build_options(cfg),
                                             distinct_tol=cfg.distinct_tol)
        except Exception as err:  # anything a stage does not turn into its failure
            return "escaped", f"exception {type(err).__name__}: {err}"
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        return "escaped", f"RuntimeWarning: {runtime[0].message}"
    if result.success:
        return "certified", None
    label = classify(result.failed_stage)
    return label or "escaped", None if label else f"unclassified failure: {result.failed_stage!r}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--configs", type=int, default=300, help="configs to draw")
    parser.add_argument("--max-n", type=int, default=512, help="cap on n in every dim")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    counts, escapes, refused = Counter(), [], 0
    for _ in range(args.configs):
        text = draw_text(rng, args.max_n)
        label, escape = run_one(text)
        if label is None:
            refused += 1
            continue
        counts[label] += 1
        if escape:
            escapes.append(f"{escape}\n    config: {text.strip().replace(chr(10), '; ')}")

    print(f"census: seed {args.seed}, {args.configs} configs drawn, {refused} refused by "
          f"parse_config, {sum(counts.values())} run, n <= {args.max_n}")
    width = max(map(len, counts), default=0)
    for label, count in sorted(counts.items(), key=lambda kv: (kv[0] != "certified", -kv[1])):
        print(f"  {label:<{width}}  {count}")
    for escape in escapes:
        print(f"ESCAPED {escape}")
    return 1 if escapes else 0


if __name__ == "__main__":
    sys.exit(main())
