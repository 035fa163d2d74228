"""Reference implementations the parity suites compare the library to."""
