"""The test suite, one package, so that its modules import each other
by relative import however pytest is pointed at them."""
