"""Test-only helpers: fault-injecting executors, golden scenarios and
reference oracles."""
