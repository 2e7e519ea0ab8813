"""Run the default paired vehicle/continuum comparison suite.

Seeds the worked demo scenario, runs the full model x scenario x resolution
matrix through the CLI, and leaves summary.csv plus per-report files in the
output directory.
"""

import argparse
import json
from pathlib import Path

from trafficlab.cli import DEMO_CONFIG, main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out_suite")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "scenario.json"
    config.write_text(json.dumps(DEMO_CONFIG, indent=2, sort_keys=True))
    rc = cli_main(["compare", "--config", str(config), "--out", str(out)])
    raise SystemExit(rc)


if __name__ == "__main__":
    main()
