"""Batch experiment runner.

    shiftlab run CONFIG [--out-dir DIR] [--seed-override N]
    shiftlab list-panel
    shiftlab selfcheck [--only 1,2,...]

Exit codes for `run`: 0 success, 1 config error, 2 infeasible or degenerate
experiment, 3 caps/horizons exhausted with inconclusive verdicts present.
Exit codes for `selfcheck`: 0 every criterion passed, 1 one failed, 2 --only
named something other than a criterion number.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

import click

from .config import load_config, serialize_system
from .errors import CapExceededError, ConfigError
from .harness import InfeasibleExperiment, run_config
from .panel import canonical_pairs, panel_systems
from .reports import fmt_rational, render_csv, render_json


@click.group()
def main():
    """Exact-arithmetic experiments on subshifts of finite type."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
@click.option("--seed-override", type=int, default=None, help="Replace configured seeds.")
def run(config_path: str, out_dir: str, seed_override):
    """Execute a config and write the CSV report plus its JSON mirror."""
    try:
        config = load_config(config_path)
        rows, code = run_config(config, seed_override=seed_override)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(1)
    except InfeasibleExperiment as err:
        click.echo(f"infeasible experiment: {err}", err=True)
        sys.exit(2)
    except CapExceededError as err:
        click.echo(f"cap exhausted: {err}", err=True)
        sys.exit(3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / config.csv_name
    json_path = out / config.json_name
    csv_path.write_bytes(render_csv(rows).encode("utf-8"))
    json_path.write_bytes(render_json(rows, config.source).encode("utf-8"))
    click.echo(f"wrote {csv_path} ({len(rows)} rows) and {json_path}")
    sys.exit(code)


@main.command("list-panel")
def list_panel():
    """Print the bundled systems and their canonical pair panels."""
    for system in panel_systems():
        spec = serialize_system(system)
        pi = ", ".join(fmt_rational(v) for v in system.measure.stationary)
        click.echo(f"{system.id}: {system.description}")
        click.echo(f"  alphabet_size: {spec['alphabet_size']}")
        click.echo(f"  allowed: {spec['allowed']}")
        click.echo(f"  transition: {spec['transition']}")
        click.echo(f"  stationary: ({pi})")
        labels = [label for label, _x, _y in canonical_pairs(system)]
        click.echo(f"  pairs: {', '.join(labels)}")


def _criterion_numbers(ctx, param, value: Optional[str]) -> Optional[list[int]]:
    """The criteria that --only names, each an integer from 1 to the last criterion.

    No --only means every criterion (None); an --only that names none is refused.
    """
    from .acceptance import ALL_CRITERIA

    if value is None:
        return None
    last = len(ALL_CRITERIA)
    numbers = []
    for item in filter(None, (v.strip() for v in value.split(","))):
        try:
            number = int(item)
        except ValueError:
            number = None
        if number is None or not 1 <= number <= last:
            raise click.BadParameter(f"{item!r} is not a criterion number (1 to {last})")
        numbers.append(number)
    if not numbers:
        raise click.BadParameter(f"{value!r} names no criterion number (1 to {last})")
    return numbers


@main.command("selfcheck")
@click.option(
    "--only", default=None, callback=_criterion_numbers, help="Comma-separated criterion numbers."
)
def selfcheck(only: Optional[list[int]]):
    """Run the acceptance suite and print one pass/fail line per criterion."""
    from .acceptance import run_criteria

    results = run_criteria(only)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        click.echo(f"[{status}] criterion {res.number}: {res.title} ({res.seconds:.1f}s) {res.detail}")
        failed += 0 if res.passed else 1
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
