"""The cost ledger: this repo's benchmark (see README.md in this directory)."""
