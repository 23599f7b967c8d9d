"""The repository's end-to-end benchmark (see ``README.md`` here).

Run from the checkout root::

    python3 e2ebench/run.py --workload yelp_load_A --seed 1 --seconds 20 --trace 0
"""
