# Convenience targets for the protocol-switching reproduction.

.PHONY: install test bench fleet fleet-sharded reproduce examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Quick fleet sweep (sim + asyncio smoke) with its artifact validated.
fleet:
	python benchmarks/bench_fleet.py --quick --out benchmarks/results/fleet-quick.json
	python scripts/check_fleet.py benchmarks/results/fleet-quick.json

# Quick shard-scaling sweep: in-process baseline, then 1 and 2 shards,
# validated for partition parity and the scaling floor.
fleet-sharded:
	python benchmarks/bench_fleet.py --quick --no-asyncio --out benchmarks/results/fleet-quick.json
	python benchmarks/bench_fleet_sharded.py --quick --baseline benchmarks/results/fleet-quick.json --out benchmarks/results/fleet-sharded-quick.json
	python scripts/check_fleet.py benchmarks/results/fleet-sharded-quick.json benchmarks/results/fleet-quick.json

# Regenerate every paper artifact via the CLI (text reports to stdout).
reproduce:
	repro figure2
	repro table2
	repro overhead
	repro oscillation
	repro preservation

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex; done

# benchmarks/results/ holds tracked artifacts next to scratch reports:
# remove only what .gitignore calls scratch there.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks
	git clean -qfX benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
