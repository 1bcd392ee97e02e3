"""Output manifests of every shipped config and benchmark workload.

    python tests/manifests.py OUT.json [--against OTHER.json] [INI ...]

Runs `blocklab.harness.run` on every `configs/*.ini` and every
`perfbench/workloads/*.ini` of this checkout, then on each INI given, at
seeds 42 and 7, each in a fresh temporary directory; the INI files are
only read.  The given INIs cover kinds that no shipped file runs; give
the same paths on both sides of a comparison.  OUT.json holds,
per run, the exit code, the sha256 manifest of its output files (the
`outputs` of `run.json`) and its reports' JSON.

With --against, the manifest is compared with one written the same way,
for instance by this script in a checkout of another commit: every entry
that differs, or is on one side only, is named and the exit code is 1.
That is the byte-identity proof of a refactor, one command per side.

The file name keeps pytest from collecting it.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from blocklab.harness import load_config, run  # noqa: E402
from blocklab.inequalities import _plain  # noqa: E402

SEEDS = (42, 7)


def _canonical(entry) -> str:
    # NaN is unequal to itself: entries compare as their JSON text
    return json.dumps(entry, sort_keys=True, default=_plain)


def manifest(extra=()) -> dict:
    """One entry per config and seed, keyed `path@seed`: relative to the
    checkout for its own INIs, as given for the `extra` ones."""
    paths = [(p, p.relative_to(ROOT)) for p in
             sorted(ROOT.glob("configs/*.ini"))
             + sorted(ROOT.glob("perfbench/workloads/*.ini"))]
    paths += [(Path(p), p) for p in extra]
    entries = {}
    for path, name in paths:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                result = run(load_config(path, seed=seed), out)
            entries[f"{name}@{seed}"] = {
                "exit_code": result.exit_code,
                "outputs": result.outputs,
                "reports": [r.to_json() for r in result.reports],
            }
    return entries


def differences(ours: dict, theirs: dict) -> list[str]:
    """The keys whose entries differ or exist on one side only, sorted."""
    return sorted(key for key in ours.keys() | theirs.keys()
                  if key not in ours or key not in theirs
                  or _canonical(ours[key]) != _canonical(theirs[key]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="where to write this checkout's manifest")
    parser.add_argument("--against", type=Path, help="a manifest to compare with")
    parser.add_argument("inis", nargs="*", metavar="INI",
                        help="more configs to run, beside the checkout's own")
    # INIs may follow --against: positionals on either side of it
    args = parser.parse_intermixed_args(argv)
    entries = manifest(args.inis)
    args.out.write_text(json.dumps(entries, indent=1, sort_keys=True, default=_plain)
                        + "\n", encoding="utf-8")
    print(f"{len(entries)} runs written to {args.out}")
    if args.against is None:
        return 0
    differ = differences(entries, json.loads(args.against.read_text(encoding="utf-8")))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(entries)} runs differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
