"""Output manifests of every shipped config and benchmark workload.

    python tests/manifests.py OUT.json [--against OTHER.json | --parent REF] [INI ...]

Runs `blocklab.harness.run` on every `configs/*.ini` and every
`perfbench/workloads/*.ini` of this checkout, on the two variants of the
resolvent-decay workload in BULK_CT, then on each INI given, at seeds 42
and 7, each in a fresh temporary directory; the INI files are only read.
The variants and the given INIs cover paths that no shipped file runs;
give the same paths on both sides of a comparison.  OUT.json holds,
per run, the `config_hash` and the `validate` diagnostics of its config,
the exit code, the sha256 manifest of its output files (the `outputs` of
`run.json`), its reports' JSON and its `summary`.

With --against, the manifest is compared with one written the same way,
for instance by this script in a checkout of another commit: every entry
that differs, or is on one side only, is named, with what differs in it
(the config hash, the validate list, the exit code, each output file
whose sha256 differs, each report name and each summary key added,
removed or changed), and the exit code is 1.  That is the byte-identity
proof of a refactor, one command per side, the config side included.

--parent REF builds the other side itself: it checks REF out in a
temporary detached `git worktree`, runs REF's own tests/manifests.py
there with the same INI arguments (paths resolve from the current
directory on both sides), removes the worktree, and compares as
--against does.  So the proof against a parent commit is one command,
which covers every kind with the INIs of tests/kinds, one per kind or
path that no shipped file runs:

    python tests/manifests.py OUT.json --parent REF tests/kinds/*.ini

The file name keeps pytest from collecting it.
"""

import argparse
import configparser
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from blocklab.harness import parse_config, run, validate  # noqa: E402
from blocklab.inequalities import _plain  # noqa: E402

SEEDS = (42, 7)
# the bulk ct path, off the gap, which no shipped INI takes: the
# resolvent-decay workload above its spectrum's gap edge, and inside a
# band with V uniform[0, 1]; each overrides these keys of the workload
BULK_CT_INI = "perfbench/workloads/resolvent-decay.ini"
BULK_CT = {"energy=2.0": {"ct": {"energy": "2.0"}},
           "energy=-1.3,V=uniform[0,1]": {"ct": {"energy": "-1.3"},
                                          "mu_V": {"a": "0.0", "b": "1.0"}}}


def _canonical(entry) -> str:
    # NaN is unequal to itself: entries compare as their JSON text
    return json.dumps(entry, sort_keys=True, default=_plain)


def _overridden(text: str, sections: dict) -> str:
    """INI text with the given keys of its sections set."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    for name, values in sections.items():
        cp[name].update(values)
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def manifest(extra=()) -> dict:
    """One entry per config and seed, keyed `path@seed`: relative to the
    checkout for its own INIs, `path[variant]` for the BULK_CT ones, as
    given for the `extra` ones."""
    inis = [(p.relative_to(ROOT), p.read_text(encoding="utf-8")) for p in
            sorted(ROOT.glob("configs/*.ini"))
            + sorted(ROOT.glob("perfbench/workloads/*.ini"))]
    bulk = (ROOT / BULK_CT_INI).read_text(encoding="utf-8")
    inis += [(f"{BULK_CT_INI}[{name}]", _overridden(bulk, keys))
             for name, keys in BULK_CT.items()]
    inis += [(p, Path(p).read_text(encoding="utf-8")) for p in extra]
    entries = {}
    for name, text in inis:
        for seed in SEEDS:
            cfg = parse_config(text, seed=seed)
            with tempfile.TemporaryDirectory() as out:
                result = run(cfg, out)
            entries[f"{name}@{seed}"] = {
                "config_hash": cfg.config_hash(),
                "validate": validate(cfg),
                "exit_code": result.exit_code,
                "outputs": result.outputs,
                "reports": [r.to_json() for r in result.reports],
                "summary": result.summary,
            }
    return entries


def parent_manifest(ref: str, inis) -> dict:
    """The manifest that commit `ref`'s own tests/manifests.py writes for
    the given INIs, run in a temporary detached worktree of this
    repository, which is removed afterwards."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree, out = Path(tmp) / "tree", Path(tmp) / "parent.json"
        subprocess.run(git + ["add", "--detach", "--quiet", str(tree), ref], check=True)
        try:
            subprocess.run([sys.executable, str(tree / "tests" / "manifests.py"),
                            str(out), *map(str, inis)], check=True)
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], check=True)
        return json.loads(out.read_text(encoding="utf-8"))


def differences(ours: dict, theirs: dict) -> list[str]:
    """The keys whose entries differ or exist on one side only, sorted."""
    return sorted(key for key in ours.keys() | theirs.keys()
                  if key not in ours or key not in theirs
                  or _canonical(ours[key]) != _canonical(theirs[key]))


def _by_name(items) -> dict:
    """Each name of a list of JSON objects with a "name", mapped to the
    canonical text of its objects, in order."""
    out = {}
    for item in items:
        out.setdefault(item["name"], []).append(_canonical(item))
    return out


def _named_changes(what: str, ours: dict, theirs: dict) -> list[str]:
    """One line per key of either dict whose values differ, sorted."""
    return [f"{what} {name} " + ("added" if name not in theirs else "removed"
                                 if name not in ours else "changed")
            for name in sorted(ours.keys() | theirs.keys())
            if ours.get(name) != theirs.get(name)]


def changes(ours: dict, theirs: dict) -> list[str]:
    """What differs between two entries of one run, ours against theirs:
    the config hash, the validate list, the exit code, the output files
    whose sha256 differs or that one side lacks, the report names and the
    summary keys added, removed or changed."""
    out = [f"{what} changed" for what, key in (("config hash", "config_hash"),
                                               ("validate", "validate"))
           if ours.get(key) != theirs.get(key)]
    if ours["exit_code"] != theirs["exit_code"]:
        out.append(f"exit code {theirs['exit_code']} -> {ours['exit_code']}")
    for what, key in (("output", "outputs"), ("report", "reports")):
        out += _named_changes(what, _by_name(ours[key]), _by_name(theirs[key]))
    summaries = ({k: _canonical(v) for k, v in entry.get("summary", {}).items()}
                 for entry in (ours, theirs))
    return out + _named_changes("summary", *summaries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="where to write this checkout's manifest")
    other = parser.add_mutually_exclusive_group()
    other.add_argument("--against", type=Path, help="a manifest to compare with")
    other.add_argument("--parent", metavar="REF",
                       help="a commit whose own manifest, for the same INIs, to "
                            "compare with")
    parser.add_argument("inis", nargs="*", metavar="INI",
                        help="more configs to run, beside the checkout's own")
    # INIs may follow --against or --parent: positionals on either side of it
    args = parser.parse_intermixed_args(argv)
    entries = manifest(args.inis)
    args.out.write_text(json.dumps(entries, indent=1, sort_keys=True, default=_plain)
                        + "\n", encoding="utf-8")
    print(f"{len(entries)} runs written to {args.out}")
    if args.parent is not None:
        try:
            theirs = parent_manifest(args.parent, args.inis)
        except subprocess.CalledProcessError as e:
            print(f"--parent {args.parent}: {e}", file=sys.stderr)
            return 2
        other = args.parent
    elif args.against is not None:
        theirs = json.loads(args.against.read_text(encoding="utf-8"))
        other = args.against
    else:
        return 0
    differ = differences(entries, theirs)
    for key in differ:
        print(f"differs: {key}")
        side = ("only here" if key not in theirs else
                f"only in {other}" if key not in entries else None)
        for line in [side] if side else changes(entries[key], theirs[key]):
            print(f"  {line}")
    print(f"{len(differ)} of {len(entries)} runs differ from {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
