"""Simulation service: batch/sweep driver over the persistent kernel cache.

The paper's workflow (and the waLBerla Python frontend it builds on) runs
*parameter studies*: many scenario configurations through one generated
code base, with codegen cost paid once and amortized across the whole
study.  :mod:`repro.service.sweep` is that driver — submit N scenario
specs (params × geometry × model), execute them across worker processes
that share the warm on-disk kernel cache, and merge every run's
diagnostics, health events and RunDir artifacts into one sweep report.
"""
