"""Test-only helpers: fault-injecting executors and golden scenarios."""
