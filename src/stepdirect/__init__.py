"""Direct sampling for univariate weighted distributions.

Targets of the form f(x) proportional to w(x) g(x) with an intractable
normalizer are sampled exactly: an auxiliary uniform level u selects the
superlevel set A_u = {x : w(x) > u c}, a step-function envelope over
P(A_u) proposes u, and an inverse-CDF draw from the base g truncated to a
stored window that contains A_u produces x, kept iff w(x) > u c. Applications included: Conway-Maxwell Poisson generation,
the dependence parameter of a CAR mixed model, and the degrees of freedom
in t-errors regression.
"""
