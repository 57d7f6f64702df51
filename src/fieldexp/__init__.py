"""Error exponents for Neyman-Pearson detection of a correlated Gaussian
field under uniform, clustered, and arbitrary periodic sensor activation,
with a Monte Carlo detection oracle validating every closed form.

Import what you use from its submodule: ``fieldexp.field_model`` (the field
and its layouts), ``fieldexp.kalman_exponent`` (the closed forms),
``fieldexp.config_opt`` (sweeps and the spacing optimum),
``fieldexp.mc_detector`` (the Monte Carlo oracle) and ``fieldexp.errors``.
The package itself loads none of them, so a process that runs one command
compiles and loads only the modules that command reads."""

__version__ = "0.1.0"
